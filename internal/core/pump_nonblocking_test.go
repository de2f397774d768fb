package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/wire"
)

// TestPumpSlowPeerDoesNotBlockOthers: one peer hanging for a transport
// timeout must not freeze delivery to other peers. The old pump barriered
// every pass on wg.Wait, so a message enqueued while a slow batch was in
// flight waited out the full hang; now the loop starts the next pass while
// slow batches finish (per-peer inflight flags make overlapping passes
// safe).
func TestPumpSlowPeerDoesNotBlockOthers(t *testing.T) {
	const hang = 600 * time.Millisecond

	bus := transport.NewBus()
	ack := func(wire.Request) wire.Response { return wire.NewResponse(200, "ok") }
	ok := transport.HandlerFunc(func(from string, req wire.Request) wire.Response {
		return wire.HandleFrame(req, ack)
	})
	fastArrived := make(chan struct{}, 1)
	bus.Register("slow", ok)
	bus.Register("fast", transport.HandlerFunc(func(from string, req wire.Request) wire.Response {
		select {
		case fastArrived <- struct{}{}:
		default:
		}
		return wire.HandleFrame(req, ack)
	}))
	bus.SetLatency("slow", hang)

	cfg := DefaultConfig()
	a := NewController(&kvApp{name: "a"}, bus, cfg)
	bus.Register("a", a)

	if err := a.StartPump(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a.StopPump()

	// The slow peer's batch gets claimed and hangs in the transport.
	a.enqueue([]warp.OutMsg{{Kind: warp.OutDelete, Target: "slow", RemoteReqID: "r1"}}, traceCtx{})
	time.Sleep(50 * time.Millisecond)

	// A message for a healthy peer enqueued mid-hang must go out now, not
	// after the slow delivery reconciles.
	start := time.Now()
	a.enqueue([]warp.OutMsg{{Kind: warp.OutDelete, Target: "fast", RemoteReqID: "r2"}}, traceCtx{})
	select {
	case <-fastArrived:
	case <-time.After(hang):
		t.Fatalf("fast peer starved for %v: pump pass still barriers on the slow batch", hang)
	}
	if waited := time.Since(start); waited > hang/2 {
		t.Fatalf("fast delivery took %v, should not have waited out the slow peer's %v hang", waited, hang)
	}

	if !a.WaitQueueEmpty(5 * time.Second) {
		t.Fatalf("queue did not drain: %d left", a.QueueLen())
	}
}

// TestRetryLiveMessageAppliesUpdatedHeaders is the regression test for
// Retry on a live (not-held) message: the updated credential headers used
// to be silently dropped; they must instead supersede the in-flight
// content through the generation-bump path and ride the next delivery.
func TestRetryLiveMessageAppliesUpdatedHeaders(t *testing.T) {
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, DefaultConfig())
	b := tb.add(&kvApp{name: "b"}, DefaultConfig())

	var mu sync.Mutex
	var carriers []wire.Request
	tb.bus.Register("b", transport.HandlerFunc(func(from string, req wire.Request) wire.Response {
		mu.Lock()
		carriers = append(carriers, frameCarriers(req)...)
		mu.Unlock()
		return b.HandleWire(from, req)
	}))

	tb.call("a", wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "good"))
	attack := tb.call("a", wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "evil"))

	tb.bus.SetOffline("b", true)
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	a.Flush() // one failed attempt; the message is live, not held
	pending := a.Pending()
	if len(pending) != 1 || pending[0].Held {
		t.Fatalf("expected one live pending message, got %+v", pending)
	}

	if err := a.Retry(pending[0].MsgID, map[string]string{"Authorization": "fresh-token"}); err != nil {
		t.Fatal(err)
	}

	tb.bus.SetOffline("b", false)
	tb.settle(20)
	if a.QueueLen() != 0 {
		t.Fatalf("queue did not drain: %+v", a.Pending())
	}

	mu.Lock()
	defer mu.Unlock()
	if len(carriers) == 0 {
		t.Fatal("no repair carrier reached b")
	}
	last := carriers[len(carriers)-1]
	if got := last.Header["Authorization"]; got != "fresh-token" {
		t.Fatalf("delivered carrier lost the Retry headers: Authorization = %q, headers %+v", got, last.Header)
	}
}
