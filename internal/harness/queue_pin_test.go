package harness

import (
	"runtime"
	"testing"
	"time"

	"aire/internal/core"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// This file pins the repair wave's per-carrier costs by count, so they
// hold on every host: what a frame costs to decode and answer, and what
// the outgoing queue costs per message as the wave grows.

// frameTap records the first frame a peer receives and the reply it
// sends back.
type frameTap struct {
	inner        transport.Handler
	frame, reply []byte
}

func (f *frameTap) HandleWire(from string, req wire.Request) wire.Response {
	resp := f.inner.HandleWire(from, req)
	if req.Path == wire.FramePath && f.frame == nil {
		f.frame, f.reply = req.Body, resp.Body
	}
	return resp
}

// TestFrameCodecAllocsPinned pins the allocations per carrier of the
// frame codec on the frame TestRepairWaveWALPinned's 32-dependent wave
// sends each peer: 33 delete carriers. One round decodes the frame (the
// peer), encodes the per-carrier answers (the peer) and decodes them (the
// hub). The binary codec makes one string copy per frame and a header map
// per carrier; a JSON codec decodes every field through reflection and
// allocates several times as much.
func TestFrameCodecAllocsPinned(t *testing.T) {
	const maxAllocs = 5.5 // per carrier (measured 5.21)
	bus := transport.NewBus()
	hub, peers := newWaveWorld(bus, core.DefaultConfig())
	tap := &frameTap{inner: peers[0]}
	bus.Register(wavePeers[0], tap)
	attack := seedWave(t, bus, 32)
	if _, err := hub.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack}); err != nil {
		t.Fatal(err)
	}
	if _, left := hub.Flush(); left != 0 || tap.frame == nil {
		t.Fatalf("Flush left %d queued, tapped frame %d bytes", left, len(tap.frame))
	}
	cs, err := wire.DecodeFrame(tap.frame)
	if err != nil {
		t.Fatal(err)
	}
	resps, err := wire.DecodeFrameReply(tap.reply, len(cs))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 33 || cs[0].Header[wire.HdrRepair] != string(warp.OutDelete) {
		t.Fatalf("tapped %d carriers (first %v), want the wave's 33 deletes", len(cs), cs[0].Header)
	}
	allocs, bytes := perOp(10, 200, func() {
		got, _ := wire.DecodeFrame(tap.frame)
		wire.DecodeFrameReply(wire.EncodeFrameReply(resps), len(got))
	})
	perCarrier := allocs / float64(len(cs))
	t.Logf("frame of %d carriers, %d bytes: %.2f allocs and %d bytes per carrier", len(cs), len(tap.frame), perCarrier, bytes/uint64(len(cs)))
	if perCarrier > maxAllocs {
		t.Errorf("frame codec = %.2f allocs per carrier, ceiling %.1f", perCarrier, maxAllocs)
	}
}

// queueCost is what one repair wave of the queue pin cost per queued
// message, on the sending hub (cancel, then Flush) and on its recovery
// from the WAL the wave wrote.
type queueCost struct {
	msgs                         int
	sendAllocs, sendVisits       float64
	recoverAllocs, recoverVisits float64
	send, recover                time.Duration
}

// measureQueueCost runs TestRepairWaveWALPinned's wave at the given
// number of dependents on a hub with a WAL (no fsyncs: the pin counts,
// it does not time), then recovers a fresh hub from that WAL.
func measureQueueCost(t *testing.T, dependents int) queueCost {
	t.Helper()
	bus := transport.NewBus()
	hub, _ := newWaveWorld(bus, core.DefaultConfig())
	dir := t.TempDir()
	opts := wal.Options{Policy: wal.FsyncNone}
	w, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	hub.AttachWAL(w)
	attack := seedWave(t, bus, dependents)

	qc := queueCost{msgs: 3 * (dependents + 1)}
	perMsg := func(f func()) (allocs, elapsed float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		f()
		elapsed = float64(time.Since(start))
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(qc.msgs), elapsed
	}
	visits0 := hub.Stats().QueueVisits
	allocs, elapsed := perMsg(func() {
		if _, err := hub.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack}); err != nil {
			t.Fatal(err)
		}
		if delivered, left := hub.Flush(); delivered != qc.msgs || left != 0 {
			t.Fatalf("Flush delivered %d and left %d, want %d and 0", delivered, left, qc.msgs)
		}
	})
	qc.sendAllocs, qc.send = allocs, time.Duration(elapsed)
	qc.sendVisits = float64(hub.Stats().QueueVisits-visits0) / float64(qc.msgs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	fresh, _ := newWaveWorld(transport.NewBus(), core.DefaultConfig())
	allocs, elapsed = perMsg(func() {
		w2, err := persist.Recover(fresh, dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		w2.Close()
	})
	qc.recoverAllocs, qc.recover = allocs, time.Duration(elapsed)
	qc.recoverVisits = float64(fresh.Stats().QueueVisits) / float64(qc.msgs)
	if n := fresh.QueueLen(); n != 0 {
		t.Fatalf("recovered hub holds %d queued messages, want 0", n)
	}
	return qc
}

// TestQueueCostPinned pins the outgoing queue at O(1) amortized per
// message: a wave of 10⁴ dependents costs each of its 30 003 messages at
// most 1.2× the allocations and queue-entry visits a wave of 10³ costs
// each of its 3 003, both to send (cancel, which queues the messages,
// then Flush, which claims, delivers and dequeues them) and to recover
// from the WAL the wave wrote (a q-set and a q-del replayed per message).
// Visits are the queue's own accounting (core.Stats QueueVisits): every
// entry a claim pass or a compaction walks and every entry a lookup
// examines. A linear collapse lookup examines the whole queue per message,
// and a compaction per removal walks it per q-del, so either makes the
// visits per message grow with the wave. The allocations carry no such
// teeth — a linear scan allocates nothing — and guard the rest of the
// path against per-message growth. Recovery's allocations per message
// also hold under a ceiling: replaying a q-set or q-del decodes it.
func TestQueueCostPinned(t *testing.T) {
	const (
		maxGrowth        = 1.2
		maxVisits        = 4.4 // queue entries visited per message (measured 4.0 at both sizes)
		maxRecoverAllocs = 27  // per message (measured 24.5; 34.2 while replay cloned every record, 138.6 while WAL ops were JSON)
	)
	small, large := measureQueueCost(t, 1000), measureQueueCost(t, 10000)
	for _, qc := range []queueCost{small, large} {
		t.Logf("%5d messages: send %.1f allocs %.2f visits per message (%v); recover %.1f allocs %.2f visits per message (%v)",
			qc.msgs, qc.sendAllocs, qc.sendVisits, qc.send.Round(time.Millisecond),
			qc.recoverAllocs, qc.recoverVisits, qc.recover.Round(time.Millisecond))
	}
	for _, c := range []struct {
		name         string
		small, large float64
	}{
		{"send allocs", small.sendAllocs, large.sendAllocs},
		{"send visits", small.sendVisits, large.sendVisits},
		{"recover allocs", small.recoverAllocs, large.recoverAllocs},
		{"recover visits", small.recoverVisits, large.recoverVisits},
	} {
		if c.large > maxGrowth*c.small {
			t.Errorf("%s per message grew %.1f → %.1f from 10³ to 10⁴ dependents (bound %.1f×)", c.name, c.small, c.large, maxGrowth)
		}
	}
	for _, qc := range []queueCost{small, large} {
		if qc.sendVisits > maxVisits || qc.recoverVisits > maxVisits {
			t.Errorf("%d messages: %.2f send and %.2f recover visits per message, ceiling %.1f", qc.msgs, qc.sendVisits, qc.recoverVisits, maxVisits)
		}
		if !raceEnabled && qc.recoverAllocs > maxRecoverAllocs {
			t.Errorf("%d messages: %.1f recover allocs per message, ceiling %d", qc.msgs, qc.recoverAllocs, maxRecoverAllocs)
		}
	}
}
