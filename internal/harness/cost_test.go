package harness

import (
	"encoding/json"
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

// askbotWriteOps is how many posts TestAskbotWriteCostPinned averages
// over. A post adds keys to the store's and the log's maps, and a Go map
// grows by splitting whichever of its tables fills first, which depends on
// the map's random hash seed: over 64 posts the mean per post was 4 611 or
// 6 660 bytes from one run to the next (one 131 KB split or none). Over
// 512 posts every table the seeded maps start with splits, so the mean
// includes the maps' amortized growth and repeats exactly.
const askbotWriteOps = 512

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
// the sync.Pool f draws on (web's readScratch, the request's dependency
// scratch) keeps what the warm calls of f put in it and the counts repeat
// exactly: a collection empties the pool, and a call that changes P
// misses the scratch its last call put back on the old one.
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
		maxBytes  = 114000 // allocated bytes per read (measured 112 143)
	)
	// maxBytes sits under 2 % above the measurement: copying each
	// compression-sampled record's JSON again costs about 4.3 KB per read,
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
		wantRead   = 476606 // Log.AppBytes after askbotReadOps reads
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

// TestAskbotReadRecordBytesPinned pins the raw JSON size of one
// question-list read's log record, the size the log accounts for it
// (encodedLen, which equals len(json.Marshal) by TestEncodedLen and
// FuzzEncodedLen). The record names the author profile once and the
// question model once, however many questions list that author.
func TestAskbotReadRecordBytesPinned(t *testing.T) {
	const wantRaw = 68104
	b := newAskbotReadBench(t)
	if err := b.Read(); err != nil {
		t.Fatal(err)
	}
	all := b.Ctrl.Svc.Log.All()
	rec := all[len(all)-1]
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("question-list record: %d raw bytes, %d reads, %d scans", len(raw), len(rec.Reads), len(rec.Scans))
	if len(raw) != wantRaw {
		t.Errorf("raw bytes of one question-list record = %d, want %d", len(raw), wantRaw)
	}
}

// TestAskbotWriteCostPinned pins the write shape the askbot.write
// benchmark runs: a question posted on top of askbotReadSeed questions. A
// post reads the poster's session and profile and writes the question, its
// revision, its activity entry and the profile, so the ceilings catch
// per-Get bookkeeping in the dependency collector that taxes writes, and
// the exact AppBytes catch any change to what a write logs.
func TestAskbotWriteCostPinned(t *testing.T) {
	const (
		maxAllocs  = 64     // allocations per write (measured 58)
		maxBytes   = 6800   // allocated bytes per write (measured 6 214)
		wantLogged = 448794 // Log.AppBytes after the 16 + askbotWriteOps writes
	)
	b := newAskbotReadBench(t)
	allocs, bytes := perOp(16, askbotWriteOps, func() {
		if err := b.Write(); err != nil {
			t.Fatal(err)
		}
	})
	logged := b.Ctrl.Svc.Log.AppBytes()
	t.Logf("askbot.write: %.0f allocs, %d bytes per write; Log.AppBytes %d", allocs, bytes, logged)
	if logged != wantLogged {
		t.Errorf("Log.AppBytes = %d, want %d", logged, wantLogged)
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own; ceilings are checked without it")
	}
	if allocs > maxAllocs {
		t.Errorf("allocations per write = %.0f, ceiling %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("allocated bytes per write = %d, ceiling %d", bytes, maxBytes)
	}
}
