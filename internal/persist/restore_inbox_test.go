package persist_test

import (
	"sync"
	"testing"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/wire"
)

// lossyCaller wraps the bus from the sender's side: the next lose frames
// are delivered but their responses dropped (the at-least-once hazard — the
// peer applied the repair, the sender doesn't know).
type lossyCaller struct {
	bus  *transport.Bus
	lose int
}

func (lc *lossyCaller) Call(from, to string, req wire.Request) (wire.Response, error) {
	resp, err := lc.bus.Call(from, to, req)
	if err == nil && req.Path == wire.FramePath && lc.lose > 0 {
		lc.lose--
		return wire.Response{}, transport.ErrUnavailable
	}
	return resp, err
}

// carrierRecorder wraps a service's handler, recording the repair-plane
// frames that reach it.
type carrierRecorder struct {
	inner transport.Handler

	mu       sync.Mutex
	carriers []wire.Request
}

func (cr *carrierRecorder) HandleWire(from string, req wire.Request) wire.Response {
	if req.Path == wire.FramePath {
		cr.mu.Lock()
		cr.carriers = append(cr.carriers, req.Clone())
		cr.mu.Unlock()
	}
	return cr.inner.HandleWire(from, req)
}

func (cr *carrierRecorder) last(t *testing.T) wire.Request {
	t.Helper()
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if len(cr.carriers) == 0 {
		t.Fatal("no repair frame recorded")
	}
	return cr.carriers[len(cr.carriers)-1]
}

// TestRestoreInboxDedupsRedelivery is the receive side of the crash-restart
// durability story (the counterpart of TestRestoreResumesPumpExactlyOnce):
// a peer applies a repair whose response is lost, crash-restarts from its
// checkpoint mid-redelivery, and the sender's retry must be
// re-acknowledged from the restored dedup inbox — not re-applied.
func TestRestoreInboxDedupsRedelivery(t *testing.T) {
	bus := transport.NewBus()
	lossy := &lossyCaller{bus: bus, lose: 1}
	a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, lossy, core.DefaultConfig())
	bus.Register("a", a)
	b := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
	rec := &carrierRecorder{inner: b}
	bus.Register("b", rec)
	dir, w := attachWAL(t, b)

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

	// The repair reaches b — who applies it — but the response is lost, so
	// a still holds the message queued for redelivery.
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	if got := b.Stats().RepairsRun; got != 1 {
		t.Fatalf("b applied %d repairs before the crash, want 1", got)
	}
	if a.QueueLen() != 1 {
		t.Fatalf("a's queue = %d, want 1 (response was lost)", a.QueueLen())
	}

	// b crashes mid-redelivery: checkpoint, discard, recover fresh.
	b2 := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
	restart(t, b, w, dir, b2)
	bus.Register("b", b2)

	// The sender retries. The restored inbox must re-acknowledge the
	// delivery without re-applying the repair.
	a.Flush()
	if a.QueueLen() != 0 {
		t.Fatalf("redelivery not acknowledged: %d queued, pending=%+v", a.QueueLen(), a.Pending())
	}
	st := b2.Stats()
	if st.RepairsRun != 0 {
		t.Fatalf("restored b re-applied the repair %d time(s); the persisted inbox should have deduplicated it", st.RepairsRun)
	}
	if st.DupDeliveries != 1 {
		t.Fatalf("restored b recorded %d duplicate deliveries, want 1", st.DupDeliveries)
	}
	if got := string(mustCall("b", wire.NewRequest("GET", "/get").WithForm("key", "x")).Body); got != "good" {
		t.Fatalf("b after restore = %q, want %q", got, "good")
	}

	// Control: strip the inbox from the same checkpoint and the identical
	// redelivery re-applies — the persisted inbox is what carries
	// exactly-once across the crash.
	cp, err := persist.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := cp.Snap
	f.Inbox = nil
	b3 := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
	if err := persist.Apply(b3, f); err != nil {
		t.Fatal(err)
	}
	resp := b3.HandleWire("a", rec.last(t))
	if !resp.OK() {
		t.Fatalf("replayed redelivery: %+v", resp)
	}
	if got := b3.Stats().RepairsRun; got != 1 {
		t.Fatalf("without the persisted inbox the redelivery should re-apply (RepairsRun=%d, want 1)", got)
	}
}

// TestRestoreKeepsAcceptedBatchInsideAckedPrefix: once the sender's
// announced acked prefix covers an applied frame, the receiver compacts
// that frame's inbox entries away and the prefix alone vouches for them. A
// restore must keep the prefix: a network-delayed ghost of the first frame
// arriving after the restore is acknowledged as a duplicate, never
// re-applied, and both repairs stay applied.
func TestRestoreKeepsAcceptedBatchInsideAckedPrefix(t *testing.T) {
	bus := transport.NewBus()
	a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, bus, core.DefaultConfig())
	bus.Register("a", a)
	b := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
	rec := &carrierRecorder{inner: b}
	bus.Register("b", rec)

	mustCall := func(svc string, req wire.Request) wire.Response {
		t.Helper()
		resp, err := bus.Call("", svc, req)
		if err != nil || !resp.OK() {
			t.Fatalf("%s %s: %v %+v", req.Method, req.Path, err, resp)
		}
		return resp
	}
	get := func(key string) string {
		return string(mustCall("b", wire.NewRequest("GET", "/get").WithForm("key", key)).Body)
	}
	// Two attacks, repaired one after the other: the second repair's frame
	// announces an acked prefix covering the first delivery.
	for _, key := range []string{"x", "y"} {
		mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", key, "val", "good"))
		attack := mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", key, "val", "evil"))
		if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
			t.Fatal(err)
		}
		a.Flush()
	}
	rec.mu.Lock()
	ghost := rec.carriers[0]
	rec.mu.Unlock()

	b2 := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
	if err := persist.Apply(b2, persist.Capture(b)); err != nil {
		t.Fatal(err)
	}
	bus.Register("b", b2)
	if resp := b2.HandleWire("a", ghost); !resp.OK() {
		t.Fatalf("ghost of the first frame: %+v", resp)
	}
	if st := b2.Stats(); st.RepairsRun != 0 || st.DupDeliveries != 1 {
		t.Fatalf("ghost inside the restored acked prefix: %d repairs, %d duplicates; want 0 and 1", st.RepairsRun, st.DupDeliveries)
	}
	if x, y := get("x"), get("y"); x != "good" || y != "good" {
		t.Fatalf("after restore: x=%q y=%q, want both repaired to %q", x, y, "good")
	}
}
