package persist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// snapJSON serializes a controller's captured state for equality checks.
func snapJSON(t *testing.T, c *core.Controller) []byte {
	t.Helper()
	data, err := json.Marshal(persist.Capture(c))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWALRecoveryEqualsLiveState runs a workload against a WAL-attached
// controller, simulates a process crash (close without checkpoint), and
// recovers a fresh controller purely from the WAL: the recovered state must
// equal the pre-crash capture byte for byte, including the outgoing queue
// and the repair log.
func TestWALRecoveryEqualsLiveState(t *testing.T) {
	dir := t.TempDir()
	bus := transport.NewBus()
	a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, bus, core.DefaultConfig())
	bus.Register("a", a)
	b := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
	bus.Register("b", b)

	w, err := persist.Recover(a, dir, wal.Options{Policy: wal.FsyncEveryCommit})
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
	mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "good"))
	attack := mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "evil"))
	mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "y", "val", "other"))

	// Repair while b is offline: the repair-plane message stays queued, so
	// the WAL must carry the queue through the crash too.
	bus.SetOffline("b", true)
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	if a.QueueLen() == 0 {
		t.Fatal("expected a queued repair message")
	}

	before := snapJSON(t, a)
	preSeq := w.Seq()
	if preSeq == 0 {
		t.Fatal("workload appended no WAL entries")
	}
	if err := w.Close(); err != nil { // process crash, no power loss
		t.Fatal(err)
	}
	if err := a.WALError(); err != nil {
		t.Fatal(err)
	}

	a2 := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, bus, core.DefaultConfig())
	w2, err := persist.Recover(a2, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Seq(); got != preSeq {
		t.Fatalf("recovered WAL resumes at seq %d, want %d", got, preSeq)
	}
	if after := snapJSON(t, a2); !bytes.Equal(before, after) {
		t.Fatalf("recovered state differs from pre-crash capture:\n before: %s\n after:  %s", before, after)
	}

	// The recovered controller keeps logging: a new mutation appends.
	bus.Register("a", a2)
	mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "z", "val", "post"))
	if got := w2.Seq(); got <= preSeq {
		t.Fatalf("post-recovery mutation did not append: seq %d, want > %d", got, preSeq)
	}
}

// TestCheckpointTruncateAndRecover exercises the checkpoint protocol across
// two crash-recover generations: checkpoint, keep mutating, crash, recover
// (snapshot + WAL tail), mutate again, checkpoint again, crash again,
// recover again. Each recovery must reproduce the pre-crash capture, old
// segments and superseded checkpoints must be deleted, and sequence numbers
// must stay continuous across the truncated prefix.
func TestCheckpointTruncateAndRecover(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so checkpoints actually truncate files.
	opts := wal.Options{Policy: wal.FsyncEveryCommit, SegmentBytes: 512}
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

	a := newA()
	w, err := persist.Recover(a, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}} {
		put(kv[0], kv[1])
	}
	upTo, err := persist.CheckpointAndTruncate(a, w, dir)
	if err != nil {
		t.Fatal(err)
	}
	if upTo == 0 {
		t.Fatal("checkpoint covered nothing")
	}
	put("e", "5")
	put("a", "1b")
	golden := snapJSON(t, a)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2: snapshot + WAL tail.
	a2 := newA()
	w2, err := persist.Recover(a2, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapJSON(t, a2); !bytes.Equal(golden, got) {
		t.Fatalf("gen-2 recovery differs:\n golden: %s\n got:    %s", golden, got)
	}
	put("f", "6")
	if _, err := persist.CheckpointAndTruncate(a2, w2, dir); err != nil {
		t.Fatal(err)
	}
	put("g", "7")
	golden2 := snapJSON(t, a2)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 3.
	a3 := newA()
	w3, err := persist.Recover(a3, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if got := snapJSON(t, a3); !bytes.Equal(golden2, got) {
		t.Fatalf("gen-3 recovery differs:\n golden: %s\n got:    %s", golden2, got)
	}
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var first uint64
	if _, err := fmt.Sscanf(segs[0], "wal-%d.seg", &first); err != nil {
		t.Fatalf("unparseable segment name %q: %v", segs[0], err)
	}
	if first == 1 {
		t.Fatalf("checkpoints never truncated the WAL: segments %v", segs)
	}
}

// blockingRepairHandler parks every repair-plane delivery on a channel so a
// test can hold a pump delivery in flight at a precise moment.
type blockingRepairHandler struct {
	inner   transport.Handler
	entered chan struct{}
	release chan struct{}
	once    sync.Once

	mu    sync.Mutex
	calls int
}

func (h *blockingRepairHandler) HandleWire(from string, req wire.Request) wire.Response {
	if req.Path == wire.FramePath {
		h.mu.Lock()
		h.calls++
		h.mu.Unlock()
		h.once.Do(func() { close(h.entered) })
		<-h.release
	}
	return h.inner.HandleWire(from, req)
}

func (h *blockingRepairHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls
}

// TestCaptureDuringClaim is the regression test for Capture's quiescence
// bug: a snapshot taken while the background pump holds a claimed message
// mid-delivery must still contain that message (the claim is an in-memory
// lease, not a dequeue), must not deadlock against the pump, and restoring
// the snapshot must not double-apply the repair — the peer's dedup inbox
// re-acknowledges the redelivery.
func TestCaptureDuringClaim(t *testing.T) {
	bus := transport.NewBus()
	a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, bus, core.DefaultConfig())
	bus.Register("a", a)
	b := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
	blocker := &blockingRepairHandler{inner: b, entered: make(chan struct{}), release: make(chan struct{})}
	bus.Register("b", blocker)

	mustCall := func(svc string, req wire.Request) wire.Response {
		t.Helper()
		resp, err := bus.Call("", svc, req)
		if err != nil || !resp.OK() {
			t.Fatalf("%s %s: %v %+v", req.Method, req.Path, err, resp)
		}
		return resp
	}
	mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "good"))
	attack := mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "evil"))

	if err := a.StartPump(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a.StopPump()
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}

	// The pump has claimed the repair message and is parked inside the
	// peer's handler: the claim is live, the reconcile has not happened.
	select {
	case <-blocker.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("pump never attempted delivery")
	}
	snap := persist.Capture(a)
	if len(snap.Queue) != 1 {
		t.Fatalf("capture during claim lost the in-flight message: queue = %d, want 1", len(snap.Queue))
	}
	close(blocker.release)
	if !a.WaitQueueEmpty(5 * time.Second) {
		t.Fatalf("delivery never reconciled: %d left", a.QueueLen())
	}

	// Restore the mid-claim snapshot: the message is redelivered (it was
	// queued at capture time) and the peer dedups the second copy.
	a2 := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, bus, core.DefaultConfig())
	bus.Register("a", a2)
	if err := persist.Apply(a2, snap); err != nil {
		t.Fatal(err)
	}
	if err := a2.StartPump(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a2.StopPump()
	if !a2.WaitQueueEmpty(5 * time.Second) {
		t.Fatalf("restored pump did not deliver: %d left", a2.QueueLen())
	}
	if got := blocker.count(); got != 2 {
		t.Fatalf("peer saw %d repair deliveries, want 2 (original + restored redelivery)", got)
	}
	if got := b.Stats().DupDeliveries; got != 1 {
		t.Fatalf("peer dedup re-acknowledged %d deliveries, want 1", got)
	}
	if got := string(mustCall("b", wire.NewRequest("GET", "/get").WithForm("key", "x")).Body); got != "good" {
		t.Fatalf("b after repair = %q, want %q", got, "good")
	}
}

// TestWALRecoveryFrame crashes a receiver right after it applied a frame
// whose answer was lost: recovery from the WAL alone restores the applied
// repair and its inbox outcome, so the sender's redelivery is
// re-acknowledged rather than re-applied, and a second recovery agrees.
func TestWALRecoveryFrame(t *testing.T) {
	dir := t.TempDir()
	bus := transport.NewBus()
	a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, &lossyCaller{bus: bus, lose: 1}, core.DefaultConfig())
	bus.Register("a", a)
	newB := func() (*core.Controller, *wal.Writer) {
		b := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
		bus.Register("b", b)
		w, err := persist.Recover(b, dir, wal.Options{Policy: wal.FsyncEveryCommit})
		if err != nil {
			t.Fatal(err)
		}
		return b, w
	}
	_, w := newB()

	mustCall := func(svc string, req wire.Request) wire.Response {
		t.Helper()
		resp, err := bus.Call("", svc, req)
		if err != nil || !resp.OK() {
			t.Fatalf("%s %s: %v %+v", req.Method, req.Path, err, resp)
		}
		return resp
	}
	getX := func() string { return string(mustCall("b", wire.NewRequest("GET", "/get").WithForm("key", "x")).Body) }
	mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "good"))
	attack := mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "evil"))
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	if a.QueueLen() != 1 || getX() != "good" {
		t.Fatalf("b applied the frame (x=%q) and a still holds it (%d queued): want good and 1", getX(), a.QueueLen())
	}

	// Crash; recover from the WAL alone.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b2, w2 := newB()
	if got := getX(); got != "good" {
		t.Fatalf("recovered b: x = %q, want %q", got, "good")
	}
	a.Flush()
	if st := b2.Stats(); a.QueueLen() != 0 || st.RepairsRun != 0 || st.DupDeliveries != 1 {
		t.Fatalf("redelivery after recovery: %d queued at a, %d repairs and %d duplicates at b; want 0, 0, 1",
			a.QueueLen(), st.RepairsRun, st.DupDeliveries)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, w3 := newB()
	defer w3.Close()
	if got := getX(); got != "good" {
		t.Fatalf("b after second recovery = %q, want %q", got, "good")
	}
}
