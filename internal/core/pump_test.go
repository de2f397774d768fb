package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/wire"
)

// fakeClock is a deterministic, manually-advanced time source for backoff
// tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (fc *fakeClock) Now() time.Time {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.now
}

func (fc *fakeClock) Advance(d time.Duration) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.now = fc.now.Add(d)
}

// orderRecorder is a bus peer that records the order repair calls arrive in.
type orderRecorder struct {
	mu   sync.Mutex
	seqs []string
}

func (r *orderRecorder) HandleWire(from string, req wire.Request) wire.Response {
	return wire.HandleFrame(req, r.carrier)
}

func (r *orderRecorder) carrier(req wire.Request) wire.Response {
	if req.Path != "/aire/repair" {
		return wire.NewResponse(404, "not a repair call")
	}
	in, err := wire.DecodeRequest(req.Body)
	if err != nil {
		return wire.NewResponse(400, err.Error())
	}
	r.mu.Lock()
	r.seqs = append(r.seqs, in.Form["seq"])
	r.mu.Unlock()
	return wire.NewResponse(200, "ok")
}

func (r *orderRecorder) recorded() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.seqs...)
}

// createMsg builds an uncollapsible repair message (creates are never
// collapsed) carrying a sequence marker for order checks.
func createMsg(target string, seq int) warp.OutMsg {
	return warp.OutMsg{
		Kind:   warp.OutCreate,
		Target: target,
		Req:    wire.NewRequest("POST", "/put").WithForm("seq", fmt.Sprint(seq)),
	}
}

// TestPumpPerPeerFIFO: the pump delivers to distinct peers concurrently but
// must preserve FIFO order within each peer — the paper's per-service
// ordering requirement.
func TestPumpPerPeerFIFO(t *testing.T) {
	const perPeer = 25
	tb := newTestbed()
	cfg := DefaultConfig()
	cfg.BatchPolicy = AdaptiveBatch{Min: 3, Max: 3} // force several batches per peer
	hub := tb.add(&kvApp{name: "hub"}, cfg)

	recorders := map[string]*orderRecorder{}
	for _, peer := range []string{"p1", "p2", "p3", "p4"} {
		rec := &orderRecorder{}
		recorders[peer] = rec
		tb.bus.Register(peer, rec)
	}
	// Interleave messages across peers so batches are claimed alternately.
	var msgs []warp.OutMsg
	for seq := 0; seq < perPeer; seq++ {
		for peer := range recorders {
			msgs = append(msgs, createMsg(peer, seq))
		}
	}
	hub.enqueue(msgs, traceCtx{})

	if err := hub.StartPump(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer hub.StopPump()
	if !hub.WaitQueueEmpty(5 * time.Second) {
		t.Fatalf("queue not drained: %d left", hub.QueueLen())
	}

	for peer, rec := range recorders {
		got := rec.recorded()
		if len(got) != perPeer {
			t.Fatalf("%s received %d messages, want %d", peer, len(got), perPeer)
		}
		for i, seq := range got {
			if seq != fmt.Sprint(i) {
				t.Fatalf("%s out of order at %d: got seq %s (full: %v)", peer, i, seq, got)
			}
		}
	}
}

// TestBackoffSchedule checks the fixed retry schedule: 50ms doubling to a
// 5s cap, with no overflow however long the outage lasts.
func TestBackoffSchedule(t *testing.T) {
	want := []time.Duration{0, 50, 100, 200, 400, 800, 1600, 3200, 5000, 5000} // ms, index = failures
	for n, ms := range want {
		if got := backoffDelay(n); got != ms*time.Millisecond {
			t.Errorf("delay after %d failures = %v, want %v", n, got, ms*time.Millisecond)
		}
	}
	for _, n := range []int{64, 1 << 20, math.MaxInt} {
		if got := backoffDelay(n); got != BackoffMax {
			t.Errorf("delay after %d failures = %v, want the %v cap", n, got, BackoffMax)
		}
	}
}

// TestBackoffGatesDeliveryAttempts: on a fake clock, background pump passes
// to an unreachable peer follow the backoff schedule exactly, messages are
// never parked, and the administrator is notified once per outage. A Flush
// ignores the retry window: each one makes exactly one attempt.
func TestBackoffGatesDeliveryAttempts(t *testing.T) {
	fc := newFakeClock()
	cfg := DefaultConfig()
	cfg.Clock = fc.Now

	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, cfg)
	tb.add(&kvApp{name: "b"}, DefaultConfig())

	attack := tb.call("a", put("x", "evil"))
	tb.settle(10)
	tb.bus.SetOffline("b", true)
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}

	attempts := func() int64 { _, drops := tb.bus.Stats(); return drops }
	base := attempts()
	pumpPass := func() {
		for _, cl := range claimPass(a) {
			a.deliverBatch(cl)
		}
	}
	expect := func(want int64, what string) {
		t.Helper()
		if got := attempts() - base; got != want {
			t.Fatalf("%s: %d attempts, want %d", what, got, want)
		}
	}

	pumpPass() // attempt 1 fails; peer backs off 50ms
	expect(1, "first pass")
	pumpPass() // clock unchanged: gated, no attempt
	pumpPass()
	expect(1, "passes inside the window")

	fc.Advance(50 * time.Millisecond)
	pumpPass() // attempt 2; delay doubles to 100ms
	expect(2, "after the base delay elapsed")
	fc.Advance(50 * time.Millisecond)
	pumpPass() // only 50ms of the 100ms delay elapsed: gated
	expect(2, "inside the doubled delay")
	fc.Advance(50 * time.Millisecond)
	pumpPass() // attempt 3
	expect(3, "after the doubled delay")

	// Flush delivers now: one attempt each, window or not, and the clock
	// never moves.
	for i := int64(1); i <= 3; i++ {
		a.Flush()
		expect(3+i, "Flush inside a retry window")
	}

	// The message is still live, and the outage is charged to the peer, not
	// to the message's own Attempts budget (which is reserved for
	// message-level failures).
	pend := a.Pending()
	if len(pend) != 1 || pend[0].Held {
		t.Fatalf("message must stay live under backoff: %+v", pend)
	}
	if pend[0].Attempts != 0 {
		t.Fatalf("peer outage must not consume the message's Attempts budget: %+v", pend[0])
	}
	// The administrator was notified of the outage exactly once.
	unreachable := 0
	for _, n := range a.Notifications() {
		if n.Kind == "unreachable" && n.Target == "b" {
			unreachable++
		}
	}
	if unreachable != 1 {
		t.Fatalf("unreachable notifications = %d, want 1", unreachable)
	}

	// Recovery: peer returns, the next pass after the window delivers and
	// resets the peer's backoff state.
	tb.bus.SetOffline("b", false)
	fc.Advance(BackoffMax)
	pumpPass()
	tb.settle(10)
	if a.QueueLen() != 0 {
		t.Fatalf("queue should drain after recovery: %d left", a.QueueLen())
	}
	if resp := tb.call("b", get("x")); resp.Status != 404 {
		t.Fatalf("b not repaired: %d %s", resp.Status, resp.Body)
	}
}

// TestUnreachableBatchOneCallPerPass: a failed batch aborts at its first
// transport failure, so an unreachable peer costs one call per pass, not
// one per queued message — and none of the messages is charged an attempt
// or parked.
func TestUnreachableBatchOneCallPerPass(t *testing.T) {
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, DefaultConfig())
	tb.add(&kvApp{name: "b"}, DefaultConfig())

	var ids []string
	for i := 0; i < 3; i++ {
		resp := tb.call("a", put(fmt.Sprintf("k%d", i), "evil"))
		ids = append(ids, resp.Header[wire.HdrRequestID])
	}
	tb.settle(10)
	tb.bus.SetOffline("b", true)
	for _, id := range ids {
		if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if n := a.QueueLen(); n != 3 {
		t.Fatalf("queue = %d, want 3", n)
	}
	const passes = 5
	for i := 0; i < passes; i++ {
		a.Flush()
	}
	for _, p := range a.Pending() {
		if p.Held || p.Attempts != 0 {
			t.Fatalf("an unreachable peer must not charge or park its messages: %+v", p)
		}
	}
	_, drops := tb.bus.Stats()
	if drops != passes {
		t.Fatalf("bus saw %d failed calls, want %d (one per pass)", drops, passes)
	}
}

// poisonPeer is a bus peer that 500s repair calls carrying seq=="poison"
// and accepts everything else.
type poisonPeer struct {
	orderRecorder
}

func (p *poisonPeer) HandleWire(from string, req wire.Request) wire.Response {
	return wire.HandleFrame(req, func(c wire.Request) wire.Response {
		if in, err := wire.DecodeRequest(c.Body); err == nil && in.Form["seq"] == "poison" {
			return wire.NewResponse(500, "handler exploded")
		}
		return p.carrier(c)
	})
}

// TestMessageSpecificFailureDoesNotBlockBatch: a reachable peer that keeps
// failing one particular message must not stall the rest of its queue. The
// poisoned message is charged alone (and eventually parked for Retry); the
// messages queued behind it still deliver, and the peer is not treated as
// unreachable (no backoff, no batch-wide attempt charges).
func TestMessageSpecificFailureDoesNotBlockBatch(t *testing.T) {
	tb := newTestbed()
	hub := tb.add(&kvApp{name: "hub"}, DefaultConfig())
	peer := &poisonPeer{}
	tb.bus.Register("sink", peer)

	hub.enqueue([]warp.OutMsg{
		{Kind: warp.OutCreate, Target: "sink", Req: wire.NewRequest("POST", "/put").WithForm("seq", "poison")},
		createMsg("sink", 1),
		createMsg("sink", 2),
	}, traceCtx{})

	for i := 0; i < MaxAttempts; i++ {
		hub.Flush()
	}
	if got := peer.recorded(); len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("messages behind the poisoned one did not deliver in order: %v", got)
	}
	pend := hub.Pending()
	if len(pend) != 1 || !pend[0].Held || pend[0].Attempts != MaxAttempts {
		t.Fatalf("poisoned message should be parked alone after MaxAttempts: %+v", pend)
	}
	// The peer answered every time, so it must not be backing off: a fresh
	// message delivers on the next pump pass (which, unlike Flush, honors
	// retry windows) with no clock advance.
	hub.enqueue([]warp.OutMsg{createMsg("sink", 3)}, traceCtx{})
	for _, cl := range claimPass(hub) {
		hub.deliverBatch(cl)
	}
	if got := peer.recorded(); len(got) != 3 || got[2] != "3" {
		t.Fatalf("reachable peer wrongly backed off after message-level failures: %v", got)
	}
}

// TestPumpRestartsAfterContextCancel: cancelling the pump's context is a
// full shutdown — PumpRunning turns false and StartPump works again.
func TestPumpRestartsAfterContextCancel(t *testing.T) {
	tb := newTestbed()
	hub := tb.add(&kvApp{name: "hub"}, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	if err := hub.StartPump(ctx); err != nil {
		t.Fatal(err)
	}
	// The pump's done channel closes only after the lifecycle state is
	// detached, so waiting on it (instead of sleep-polling PumpRunning) is
	// deterministic.
	hub.pumpMu.Lock()
	done := hub.pumpDone
	hub.pumpMu.Unlock()
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pump did not shut down after context cancel")
	}
	if hub.PumpRunning() {
		t.Fatal("pump still reported running after context cancel")
	}
	if err := hub.StartPump(context.Background()); err != nil {
		t.Fatalf("StartPump after context cancel: %v", err)
	}
	hub.StopPump()
}

// TestPumpReusesDeliverStack ensures the pump path and the legacy handlers
// agree on replace_response peer keys (notifier URL, not Target).
func TestPeerKey(t *testing.T) {
	cases := []struct {
		msg  warp.OutMsg
		want string
	}{
		{warp.OutMsg{Kind: warp.OutDelete, Target: "b"}, "b"},
		{warp.OutMsg{Kind: warp.OutCreate, Target: "c"}, "c"},
		{warp.OutMsg{Kind: warp.OutReplaceResponse, NotifierURL: "aire://client/aire/notify"}, "client"},
		{warp.OutMsg{Kind: warp.OutReplaceResponse, NotifierURL: transport.PollNotifierURL("ui-7")}, "poll://ui-7"},
		{warp.OutMsg{Kind: warp.OutReplaceResponse, NotifierURL: "garbage"}, "garbage"},
	}
	for _, tc := range cases {
		if got := peerKey(tc.msg); got != tc.want {
			t.Errorf("peerKey(%v %q) = %q, want %q", tc.msg.Kind, tc.msg.NotifierURL, got, tc.want)
		}
	}
}
