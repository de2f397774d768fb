package harness

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// This file pins what a workload's normal path costs in counts rather than
// time: allocations, allocated bytes and logged bytes are the same on every
// host, so a change that adds a copy or an encode fails here in tier-1
// instead of hiding in a noisy timing. A ceiling carries at most 10 %
// headroom over the measured value; a change that lowers a count lowers
// its ceiling with it.

// askbotReadSeed and askbotReadOps are the askbot.read benchmark's shape:
// 500 seeded questions, then reads of the question list, each logging one
// scan and 500 author-profile reads. askbotReadOps is a multiple of the
// repair log's 1-in-16 compression sample, so every measured window holds
// the same number of sampled records.
const (
	askbotReadSeed = 500
	askbotReadOps  = 64
)

// newAskbotReadBench seeds an Aire-enabled Askbot with askbotReadSeed
// questions under a fixed application clock (the time a post records is
// logged, so a run crossing a second boundary would log different bytes).
func newAskbotReadBench(t *testing.T) *AskbotBench {
	t.Helper()
	b, err := NewAskbotBench(true)
	if err != nil {
		t.Fatal(err)
	}
	b.Ctrl.Svc.TimeSource = func() int64 { return 1_380_000_000 }
	for i := 0; i < askbotReadSeed; i++ {
		if err := b.Write(); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// perOp returns f's allocations and allocated bytes per call over n calls.
// The collector is off and the process on one P for the measurement, so
// the sync.Pools f draws on (the log's gzip writers) keep what they hold
// and the counts repeat exactly; warm calls of f run first to fill them.
func perOp(warm, n int, f func()) (allocs float64, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < warm; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(n-1, f) // runs f n times: one uncounted warm-up
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

func TestAskbotReadCostPinned(t *testing.T) {
	const (
		maxAllocs = 22     // allocations per read (measured 20)
		maxBytes  = 139000 // allocated bytes per read (measured 136 735)
	)
	// maxBytes sits under 2 % above the measurement: copying each
	// compression-sampled record's JSON again costs about 7 KB per read,
	// and that must not fit under the ceiling.
	b := newAskbotReadBench(t)
	allocs, bytes := perOp(16, askbotReadOps, func() {
		if err := b.Read(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("askbot.read: %.0f allocs, %d bytes per read", allocs, bytes)
	if raceEnabled {
		t.Skip("the race detector allocates on its own; ceilings are checked without it")
	}
	if allocs > maxAllocs {
		t.Errorf("allocations per read = %.0f, ceiling %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("allocated bytes per read = %d, ceiling %d", bytes, maxBytes)
	}
}

// TestAskbotReadAppBytesPinned pins the repair log's stored bytes for the
// read shape exactly: a speed-up of the append path must not move a
// single accounted byte.
func TestAskbotReadAppBytesPinned(t *testing.T) {
	const (
		wantSeeded = 218227 // Log.AppBytes after seeding
		wantRead   = 499683 // Log.AppBytes after askbotReadOps reads
	)
	b := newAskbotReadBench(t)
	log := b.Ctrl.Svc.Log
	seeded := log.AppBytes()
	for i := 0; i < askbotReadOps; i++ {
		if err := b.Read(); err != nil {
			t.Fatal(err)
		}
	}
	read := log.AppBytes()
	t.Logf("Log.AppBytes: %d seeded, %d after %d reads (%d per read)", seeded, read, askbotReadOps, (read-seeded)/askbotReadOps)
	if seeded != wantSeeded || read != wantRead {
		t.Errorf("Log.AppBytes = %d seeded, %d after reads; want %d, %d", seeded, read, wantSeeded, wantRead)
	}
}
