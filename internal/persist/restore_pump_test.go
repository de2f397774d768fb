package persist_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/persist"
	"aire/internal/simnet"
	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/wire"
)

// repairCounter wraps a service's handler and counts the repair-plane
// deliveries that actually reach it.
type repairCounter struct {
	inner transport.Handler

	mu    sync.Mutex
	calls int
}

func (rc *repairCounter) HandleWire(from string, req wire.Request) wire.Response {
	if req.Path == "/aire/repair" {
		rc.mu.Lock()
		rc.calls++
		rc.mu.Unlock()
	}
	return rc.inner.HandleWire(from, req)
}

func (rc *repairCounter) count() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.calls
}

// TestRestoreResumesPumpExactlyOnce is the crash-restart half of §3.2's
// durability story, as the simulator exercises it: a controller is
// checkpointed with a non-empty outgoing queue while its peer is
// mid-backoff, recovered into a fresh controller, and the background pump
// must resume delivery on its own — the queued repair message arrives
// exactly once (no duplication from the restore, no loss from the backoff
// state).
func TestRestoreResumesPumpExactlyOnce(t *testing.T) {
	// The fake clock never advances, so the peer is still mid-backoff at
	// capture time; only the restore (which starts the peer's delivery
	// health fresh) lets the background pump send the message again.
	clock := simnet.NewClock(1000)
	cfg := core.DefaultConfig()
	cfg.Clock = clock.Now

	bus := transport.NewBus()
	a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, bus, cfg)
	bus.Register("a", a)
	dir, w := attachWAL(t, a)
	b := core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig())
	counter := &repairCounter{inner: b}
	bus.Register("b", counter)

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

	// Repair while b is down: the delete message stays queued, and after
	// one failed flush the peer is backing off.
	bus.SetOffline("b", true)
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	_, preDrops := bus.Stats()
	a.Flush() // one failed attempt; b backs off on the frozen clock
	if _, drops := bus.Stats(); drops-preDrops != 1 {
		t.Fatalf("offline flush made %d attempts, want 1", drops-preDrops)
	}
	if a.QueueLen() != 1 {
		t.Fatalf("queue = %d, want 1", a.QueueLen())
	}

	// Crash: checkpoint, discard the controller, recover a fresh one and
	// start its pump — it must find the recovered queue on its own (no
	// manual Flush from here on).
	if snap := persist.Capture(a); len(snap.Queue) != 1 {
		t.Fatalf("snapshot queue = %d, want 1 (message lost at capture)", len(snap.Queue))
	}
	a2 := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, bus, cfg)
	restart(t, a, w, dir, a2)

	bus.SetOffline("b", false)
	bus.Register("a", a2)
	if err := a2.StartPump(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a2.StopPump()

	if !a2.WaitQueueEmpty(5 * time.Second) {
		t.Fatalf("restored pump did not deliver the queued repair: %d left, pending=%+v", a2.QueueLen(), a2.Pending())
	}
	// The entry leaves the queue before the worker counts the delivery;
	// stopping the pump waits for the worker to finish reconciling.
	a2.StopPump()
	// Exactly once: the offline-era attempts never reached b's handler, and
	// the restore must not have duplicated the message.
	if got := counter.count(); got != 1 {
		t.Fatalf("b received %d repair deliveries, want exactly 1", got)
	}
	if got := a2.Stats().MsgsDelivered; got != 1 {
		t.Fatalf("restored controller delivered %d messages, want 1", got)
	}
	// And not lost: b rolled back to the pre-attack value.
	if got := string(mustCall("b", wire.NewRequest("GET", "/get").WithForm("key", "x")).Body); got != "good" {
		t.Fatalf("b after restored repair = %q, want %q", got, "good")
	}
}
