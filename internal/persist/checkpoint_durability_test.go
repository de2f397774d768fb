package persist_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// TestCheckpointCoversOnlyDurableTail is the regression test for the
// checkpoint/fsync-lag sequence hazard: under fsync=none a checkpoint used
// to record UpToSeq past the WAL's durable tail, so a power loss left the
// log ending below the checkpoint's claim, the recovered writer re-issued
// the covered sequences to fresh commits, and the NEXT recovery's
// replay-from-UpToSeq silently skipped them. WriteCheckpoint now forces the
// log durable before reading the covered sequence, so the sequence space
// below UpToSeq can never be handed out again.
func TestCheckpointCoversOnlyDurableTail(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{Policy: wal.FsyncNone}
	bus := transport.NewBus()
	newA := func() *core.Controller {
		c := core.NewController(&harness.KVApp{ServiceName: "a"}, bus, core.DefaultConfig())
		bus.Register("a", c)
		return c
	}
	put := func(key, val string) {
		t.Helper()
		resp, err := bus.Call("", "a", wire.NewRequest("POST", "/put").WithForm("key", key, "val", val))
		if err != nil || !resp.OK() {
			t.Fatalf("put %s: %v %+v", key, err, resp)
		}
	}
	get := func(key string) string {
		t.Helper()
		resp, err := bus.Call("", "a", wire.NewRequest("GET", "/get").WithForm("key", key))
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		return string(resp.Body)
	}

	a := newA()
	w, err := persist.Recover(a, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	put("a", "1")
	put("b", "2")
	upTo, err := persist.CheckpointAndTruncate(a, w, dir)
	if err != nil {
		t.Fatal(err)
	}
	if upTo == 0 {
		t.Fatal("checkpoint covered nothing")
	}
	golden := snapJSON(t, a)
	put("c", "3") // never fsynced: a power loss may take it

	// Power loss: everything after the last fsync is gone. The checkpoint
	// synced the log before claiming coverage, so at most the post-
	// checkpoint tail is lost — never anything at or below upTo.
	if _, err := w.CrashLose(); err != nil {
		t.Fatal(err)
	}
	a2 := newA()
	w2, err := persist.Recover(a2, dir, opts)
	if err != nil {
		t.Fatalf("recovery after power loss: %v", err)
	}
	if got := w2.Seq(); got < upTo {
		t.Fatalf("recovered WAL resumes at seq %d, below the checkpoint's covered %d: fresh commits would reuse covered sequences", got, upTo)
	}
	if got := snapJSON(t, a2); !bytes.Equal(golden, got) {
		t.Fatalf("recovery lost checkpoint-covered state:\n golden: %s\n got:    %s", golden, got)
	}

	// A post-recovery commit must survive the next (clean) restart: with
	// the old bug its sequence landed at or below upTo and replay skipped
	// it silently.
	put("d", "4")
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	a3 := newA()
	w3, err := persist.Recover(a3, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if got := get("d"); got != "4" {
		t.Fatalf("post-recovery commit silently dropped by the next recovery: d = %q, want %q", got, "4")
	}
}

// TestRecoverRefusesCheckpointBeyondWAL: a checkpoint claiming coverage past
// the end of the log means durably committed entries are missing; recovery
// must fail loudly (wrapping wal.ErrCorrupt) instead of resuming a sequence
// space whose tail a later replay would silently skip.
func TestRecoverRefusesCheckpointBeyondWAL(t *testing.T) {
	dir := t.TempDir()
	bus := transport.NewBus()
	a := core.NewController(&harness.KVApp{ServiceName: "a"}, bus, core.DefaultConfig())
	bus.Register("a", a)
	w, err := persist.Recover(a, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := bus.Call("", "a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "1"))
	if err != nil || !resp.OK() {
		t.Fatalf("put: %v %+v", err, resp)
	}
	last := w.Seq()
	cp := persist.Checkpoint{UpToSeq: last + 10, Snap: persist.Capture(a)}
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, persist.CheckpointName(cp.UpToSeq)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	a2 := core.NewController(&harness.KVApp{ServiceName: "a"}, bus, core.DefaultConfig())
	if _, err := persist.Recover(a2, dir, wal.Options{Policy: wal.FsyncEveryCommit}); err == nil {
		t.Fatal("recovery accepted a checkpoint covering sequences the log does not reach")
	} else if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("recovery error does not wrap wal.ErrCorrupt: %v", err)
	}
}

// TestCheckpointOverlapKeepsLaterAccepts: a checkpoint's covered sequence
// is read before its snapshot is captured, so frames applied in between
// land both in the snapshot and in the replayed tail. Replaying them over a
// snapshot that already holds them must be idempotent — nothing re-applied,
// nothing lost — and the inbox outcomes they recorded must still
// re-acknowledge the sender's redeliveries.
func TestCheckpointOverlapKeepsLaterAccepts(t *testing.T) {
	dir := t.TempDir()
	bus := transport.NewBus()
	a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, bus, core.DefaultConfig())
	bus.Register("a", a)
	b := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
	rec := &carrierRecorder{inner: b}
	bus.Register("b", rec)
	w, err := persist.Recover(b, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}

	mustCall := func(svc string, req wire.Request) wire.Response {
		t.Helper()
		resp, err := bus.Call("", svc, req)
		if err != nil || !resp.OK() {
			t.Fatalf("%s %s: %v %+v", req.Method, req.Path, err, resp)
		}
		return resp
	}
	var attacks []string
	for _, key := range []string{"x", "y"} {
		mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", key, "val", "good"))
		attacks = append(attacks, mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", key, "val", "evil")).Header[wire.HdrRequestID])
	}

	// The checkpoint-overlap window, replayed deterministically: the
	// covered sequence is read HERE, then two frames apply, then the
	// snapshot is captured. WriteCheckpoint does exactly this when frames
	// race its capture.
	upTo := w.Seq()
	for _, id := range attacks {
		if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: id}); err != nil {
			t.Fatal(err)
		}
		a.Flush()
	}
	cp := persist.Checkpoint{UpToSeq: upTo, Snap: persist.Capture(b)}
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, persist.CheckpointName(upTo)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery replays both frames' entries over a snapshot that already
	// holds them.
	b2 := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
	w2, err := persist.Recover(b2, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	bus.Register("b", b2)
	for _, key := range []string{"x", "y"} {
		if got := string(mustCall("b", wire.NewRequest("GET", "/get").WithForm("key", key)).Body); got != "good" {
			t.Fatalf("b %s = %q after overlap replay, want %q", key, got, "good")
		}
	}
	rec.mu.Lock()
	frames := append([]wire.Request(nil), rec.carriers...)
	rec.mu.Unlock()
	for _, f := range frames {
		if resp := b2.HandleWire("a", f); !resp.OK() {
			t.Fatalf("redelivered frame: %+v", resp)
		}
	}
	if st := b2.Stats(); st.RepairsRun != 0 || st.DupDeliveries != 2 {
		t.Fatalf("redeliveries after overlap replay: %d repairs, %d duplicates; want 0 and 2", st.RepairsRun, st.DupDeliveries)
	}
}
