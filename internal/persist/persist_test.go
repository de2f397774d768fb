package persist_test

import (
	"testing"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/persist"
	"aire/internal/vdb"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// attachWAL starts c durable the way a service boots: persist.Recover of a
// fresh, empty directory.
func attachWAL(t *testing.T, c *core.Controller) (string, *wal.Writer) {
	t.Helper()
	dir := t.TempDir()
	w, err := persist.Recover(c, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return dir, w
}

// restart checkpoints c (CheckpointAndTruncate), discards it as a crash
// would — every commit already fsynced — and recovers fresh, a new
// controller for the same app, from the directory alone.
func restart(t *testing.T, c *core.Controller, w *wal.Writer, dir string, fresh *core.Controller) *wal.Writer {
	t.Helper()
	if _, err := persist.CheckpointAndTruncate(c, w, dir); err != nil {
		t.Fatal(err)
	}
	c.DetachWAL()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := persist.Recover(fresh, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w2.Close() })
	return w2
}

// buildState runs traffic on a mirrored pair and takes a (queued) repair:
// a writes to b, b goes offline, a repairs locally with a pending delete.
// a runs on a WAL in dir.
func buildState(t *testing.T) (tb *harness.Testbed, a *core.Controller, w *wal.Writer, dir string) {
	t.Helper()
	tb = harness.NewTestbed()
	a = tb.Add(&harness.KVApp{ServiceName: "a", Mirror: "b"}, core.DefaultConfig())
	tb.Add(&harness.KVApp{ServiceName: "b"}, core.DefaultConfig())
	dir, w = attachWAL(t, a)

	tb.MustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "good"))
	attack := tb.MustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "evil"))
	tb.Settle(5)
	tb.SetOffline("b", true)
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	return tb, a, w, dir
}

// TestCheckpointRoundTrip: a checkpoint — the one on-disk snapshot format —
// reads back the state it captured and the WAL sequence it covers.
func TestCheckpointRoundTrip(t *testing.T) {
	_, a, w, dir := buildState(t)
	upTo, err := persist.WriteCheckpoint(a, w, dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := persist.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.UpToSeq != upTo || upTo != w.Seq() {
		t.Fatalf("checkpoint covers seq %d, WriteCheckpoint said %d, wal at %d", cp.UpToSeq, upTo, w.Seq())
	}
	snap, got := persist.Capture(a), cp.Snap
	if got.Service != "a" {
		t.Fatalf("service = %q", got.Service)
	}
	if len(got.Records) != len(snap.Records) || len(got.Objects) != len(snap.Objects) || len(got.Queue) != len(snap.Queue) {
		t.Fatalf("round trip mismatch: %d/%d records, %d/%d objects, %d/%d queue",
			len(got.Records), len(snap.Records), len(got.Objects), len(snap.Objects), len(got.Queue), len(snap.Queue))
	}
	if got.ClockNow != snap.ClockNow || got.IDCounter != snap.IDCounter {
		t.Fatalf("clock/counter mismatch: %d/%d %d/%d", got.ClockNow, snap.ClockNow, got.IDCounter, snap.IDCounter)
	}
}

// TestRestartPreservesQueuedRepair is the headline durability property: a
// service restarts from its checkpoint and still delivers the repair
// message that was queued for an offline peer.
func TestRestartPreservesQueuedRepair(t *testing.T) {
	tb, a, w, dir := buildState(t)

	// "Restart": a fresh controller for the same app, same bus.
	a2 := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, tb.Bus, core.DefaultConfig())
	restart(t, a, w, dir, a2)
	tb.Bus.Register("a", a2) // replaces the old instance
	tb.Ctrls["a"] = a2

	if a2.QueueLen() != 1 {
		t.Fatalf("restored queue = %d, want 1", a2.QueueLen())
	}
	// State restored.
	if got := string(tb.Call("a", wire.NewRequest("GET", "/get").WithForm("key", "x")).Body); got != "good" {
		t.Fatalf("restored a = %q", got)
	}

	// The peer returns; before the queue drains it still holds the attack
	// value; after, it rolls back to the legitimate mirrored value.
	tb.SetOffline("b", false)
	if got := string(tb.Call("b", wire.NewRequest("GET", "/get").WithForm("key", "x")).Body); got != "evil" {
		t.Fatalf("precondition: b should hold the attack value, got %q", got)
	}
	tb.Settle(10)
	if got := string(tb.Call("b", wire.NewRequest("GET", "/get").WithForm("key", "x")).Body); got != "good" {
		t.Fatalf("b not repaired from restored queue: %q", got)
	}
}

// TestRestartRemainsRepairable: a restored service can still repair its
// pre-restart requests (the log and versioned store survived).
func TestRestartRemainsRepairable(t *testing.T) {
	tb := harness.NewTestbed()
	a := tb.Add(&harness.KVApp{ServiceName: "a"}, core.DefaultConfig())
	dir, w := attachWAL(t, a)
	good := tb.MustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "v1"))
	tb.MustCall("a", wire.NewRequest("GET", "/get").WithForm("key", "k"))

	a2 := core.NewController(&harness.KVApp{ServiceName: "a"}, tb.Bus, core.DefaultConfig())
	restart(t, a, w, dir, a2)
	tb.Bus.Register("a", a2)
	tb.Ctrls["a"] = a2

	// New traffic mints non-colliding IDs and timestamps.
	fresh := tb.MustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "k2", "val", "v2"))
	if fresh.Header[wire.HdrRequestID] == good.Header[wire.HdrRequestID] {
		t.Fatal("restored ID generator reissued an old request ID")
	}

	// Repair a pre-restart request post-restart.
	if _, err := a2.ApplyLocal(warp.Action{
		Kind: warp.ReplaceReq, ReqID: good.Header[wire.HdrRequestID],
		NewReq: wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "fixed"),
	}); err != nil {
		t.Fatal(err)
	}
	if got := string(tb.Call("a", wire.NewRequest("GET", "/get").WithForm("key", "k")).Body); got != "fixed" {
		t.Fatalf("post-restart repair: k = %q", got)
	}
}

func TestApplyGuards(t *testing.T) {
	_, a, _, _ := buildState(t)
	snap := persist.Capture(a)

	wrong := core.NewController(&harness.KVApp{ServiceName: "other"}, harness.NewTestbed().Bus, core.DefaultConfig())
	if err := persist.Apply(wrong, snap); err == nil {
		t.Fatal("snapshot for another service must be rejected")
	}
	if err := persist.Apply(a, snap); err == nil {
		t.Fatal("restore into a non-empty controller must be rejected")
	}
	// A log-less controller with a store write or a queued message holds
	// state too.
	fresh := func() *core.Controller {
		return core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, harness.NewTestbed().Bus, core.DefaultConfig())
	}
	written := fresh()
	if err := written.Svc.Store.Put(vdb.Key{Model: "kv", ID: "z"}, map[string]string{"val": "1"}, 1, "r1"); err != nil {
		t.Fatal(err)
	}
	if err := persist.Apply(written, snap); err == nil {
		t.Fatal("restore into a controller whose store was written must be rejected")
	}
	if len(snap.Queue) == 0 {
		t.Fatal("buildState queued no message")
	}
	queued := fresh()
	if err := queued.ImportAtomic(core.AtomicExport{IDCounter: snap.IDCounter, Queue: snap.Queue}); err != nil {
		t.Fatal(err)
	}
	if err := persist.Apply(queued, snap); err == nil {
		t.Fatal("restore into a controller with a queued message must be rejected")
	}
}
