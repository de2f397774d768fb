package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"aire/internal/obs"
	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/wire"
)

// headerTap wraps a Caller and records every Aire-* header key stamped on
// an outgoing carrier, across every path that sends one: live forwarded
// calls, repair carriers, replace_response notifies, and fetches.
type headerTap struct {
	inner   Caller
	mu      sync.Mutex
	headers map[string]bool
}

func (h *headerTap) Call(from, to string, req wire.Request) (wire.Response, error) {
	h.mu.Lock()
	for _, r := range append([]wire.Request{req}, frameCarriers(req)...) {
		for k := range r.Header {
			if strings.HasPrefix(k, "Aire-") {
				h.headers[k] = true
			}
		}
	}
	h.mu.Unlock()
	return h.inner.Call(from, to, req)
}

// TestOutgoingHeadersRegistered guards the PR-2 bug class: an Aire header
// stamped on outgoing carriers but missing from wire.AireHeaders survives
// the in-memory bus yet silently vanishes over the HTTP adapter (the
// canonical-key mapping and dedup exclusion are both built from that
// list). Every header any delivery path stamps must be registered.
func TestOutgoingHeadersRegistered(t *testing.T) {
	bus := transport.NewBus()
	tap := &headerTap{inner: bus, headers: map[string]bool{}}
	a := NewController(&kvApp{name: "a", mirror: "b"}, tap, DefaultConfig())
	bus.Register("a", a)
	b := NewController(&kvApp{name: "b", upstream: "a"}, tap, DefaultConfig())
	bus.Register("b", b)

	// Live traffic: a mirrored put (a→b) and a fetch (b→a) so the repair
	// below cascades a repair carrier AND a replace_response notify.
	putResp, err := bus.Call("", "a", put("x", "v1"))
	if err != nil || !putResp.OK() {
		t.Fatalf("put: %v %v", err, putResp)
	}
	if resp, err := bus.Call("", "b", wire.NewRequest("POST", "/fetch").WithForm("key", "x")); err != nil || !resp.OK() {
		t.Fatalf("fetch: %v %v", err, resp)
	}

	// Replace the put on a: repairs a, cascades to b (repair carrier),
	// and changes a's /get response to b's fetch (replace_response).
	rep := wire.NewRequest("POST", "/aire/repair").WithHeader(
		wire.HdrRepair, "replace", wire.HdrRequestID, putResp.Header[wire.HdrRequestID])
	rep.Body = put("x", "v1-fixed").Encode()
	if resp, err := bus.Call("", "a", rep); err != nil || !resp.OK() {
		t.Fatalf("replace: %v %v", err, resp)
	}
	for i := 0; i < 50; i++ {
		moved := 0
		for _, c := range []*Controller{a, b} {
			d, _ := c.Flush()
			moved += d
		}
		if moved == 0 {
			break
		}
	}

	registered := map[string]bool{}
	for _, h := range wire.AireHeaders {
		registered[h] = true
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	for h := range tap.headers {
		if !registered[h] {
			t.Errorf("outgoing header %s is not registered in wire.AireHeaders", h)
		}
	}
	// The trace headers must actually ride the carriers this test drove —
	// otherwise the guard above is vacuous for them.
	for _, h := range []string{wire.HdrTraceID, wire.HdrTraceHop} {
		if !tap.headers[h] {
			t.Errorf("expected %s on at least one outgoing carrier, saw %v", h, tap.headers)
		}
	}
}

// TestControllerMetricsAndWaveSpans exercises the instrumented repair
// plane end to end on the in-memory bus and checks both surfaces: the
// metric counters and the wave reconstructed purely from propagated
// trace context.
func TestControllerMetricsAndWaveSpans(t *testing.T) {
	reg := obs.New(obs.DefaultRingCap)
	cfg := DefaultConfig()
	cfg.Obs = reg
	tb := newTestbed()
	tb.add(&kvApp{name: "a", mirror: "b"}, cfg)
	tb.add(&kvApp{name: "b"}, cfg)

	putResp := tb.call("a", put("x", "v1"))
	rep := wire.NewRequest("POST", "/aire/repair").WithHeader(
		wire.HdrRepair, "replace", wire.HdrRequestID, putResp.Header[wire.HdrRequestID])
	rep.Body = put("x", "v1-fixed").Encode()
	if resp := tb.call("a", rep); !resp.OK() {
		t.Fatalf("replace: %d %s", resp.Status, resp.Body)
	}
	tb.settle(50)

	snap := reg.Snapshot()
	for _, name := range []string{
		"core.a.repairs_run", "core.a.msgs_queued", "core.a.msgs_delivered",
		"core.b.inbox_apply", "core.b.repairs_run", "core.b.inbox_commits",
	} {
		if snap.Counters[name] < 1 {
			t.Errorf("counter %s = %d, want >= 1\n%s", name, snap.Counters[name], snap)
		}
	}
	if h := snap.Histograms["core.a.deliver_ns"]; h.Count < 1 {
		t.Errorf("core.a.deliver_ns count = %d, want >= 1", h.Count)
	}

	waves := obs.Waves(reg.Ring().Spans())
	if len(waves) == 0 {
		t.Fatal("no waves reconstructed from span ring")
	}
	found := false
	for _, w := range waves {
		if w.Origin != "a" || w.MaxHop < 1 {
			continue
		}
		for _, hop := range w.Hops {
			if hop.Hop == 1 && hop.Msgs >= 1 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no wave with origin a reached hop 1 with a paired carrier: %+v", waves)
	}
}

// TestObsDisabledZeroAlloc is the gate's allocation ceiling: with no
// registry configured, the handles count on detached storage, no span is
// recorded, and every instrumentation site makes zero allocations on the
// hot path.
func TestObsDisabledZeroAlloc(t *testing.T) {
	met := newCtrlMetrics(nil, "z")
	if met.reg != nil || met.ring != nil {
		t.Fatal("nil registry must resolve nil reg/ring")
	}
	var calls int64
	allocs := testing.AllocsPerRun(1000, func() {
		calls++
		met.requests.Inc()
		met.msgsQueued.Add(2)
		met.msgsDelivered.Inc()
		met.queueDepth.Set(7)
		met.deliverNS.ObserveNS(123)
		met.repairNS.ObserveNS(456)
		met.ring.Record(obs.Span{})
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f allocs/op, want 0", allocs)
	}
	if met.requests.Value() != calls || met.msgsQueued.Value() != 2*calls || met.queueDepth.Value() != 7 ||
		met.repairNS.SumNS() != 456*calls {
		t.Fatalf("handles must count with no registry: requests=%d queued=%d depth=%d repair sum=%d after %d calls",
			met.requests.Value(), met.msgsQueued.Value(), met.queueDepth.Value(), met.repairNS.SumNS(), calls)
	}
}

// BenchmarkObsOverhead measures the pump hot path's instrumentation sites
// (queue counters, delivery latency, reconcile span) with the registry
// disabled vs enabled. The disabled path must report 0 allocs/op —
// asserted hard by TestObsDisabledZeroAlloc, visible here as B/op=0.
func BenchmarkObsOverhead(b *testing.B) {
	span := obs.Span{Wave: "w-1", Hop: 1, Service: "bench",
		Kind: obs.SpanReconcile, Subject: "d-1", Peer: "peer"}
	run := func(b *testing.B, reg *obs.Registry) {
		met := newCtrlMetrics(reg, "bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			met.msgsQueued.Inc()
			met.queueDepth.Set(int64(i & 1023))
			met.deliverNS.ObserveNS(int64(i))
			met.msgsDelivered.Inc()
			if met.reg != nil {
				met.ring.Record(span)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, obs.New(obs.DefaultRingCap)) })
}

// TestStatsReadRegistrySeries: Stats, RepairCounts and RepairDuration read
// the same handles the registry exports, the numbers do not depend on
// whether a registry is attached, and a controller rebuilt onto the same
// registry continues its predecessor's counts.
func TestStatsReadRegistrySeries(t *testing.T) {
	run := func(reg *obs.Registry) (*testbed, Config) {
		cfg := DefaultConfig()
		cfg.Obs = reg
		tb := newTestbed()
		tb.add(&kvApp{name: "a", mirror: "b"}, cfg)
		tb.add(&kvApp{name: "b"}, cfg)
		putResp := tb.call("a", put("x", "v1"))
		rep := wire.NewRequest("POST", "/aire/repair").WithHeader(
			wire.HdrRepair, "replace", wire.HdrRequestID, putResp.Header[wire.HdrRequestID])
		rep.Body = put("x", "v1-fixed").Encode()
		if resp := tb.call("a", rep); !resp.OK() {
			t.Fatalf("replace: %d %s", resp.Status, resp.Body)
		}
		tb.settle(50)
		return tb, cfg
	}
	fromSnapshot := func(snap obs.Snapshot, svc string) (Stats, [4]int, time.Duration) {
		p := "core." + svc + "."
		st := Stats{
			Requests:        snap.Counters[p+"requests"],
			RepairsRun:      snap.Counters[p+"repairs_run"],
			MsgsQueued:      snap.Counters[p+"msgs_queued"],
			MsgsDelivered:   snap.Counters[p+"msgs_delivered"],
			MsgsFailed:      snap.Counters[p+"msgs_failed"],
			DupDeliveries:   snap.Counters[p+"inbox_duplicate"],
			StaleDeliveries: snap.Counters[p+"inbox_stale"],
			InboxCommits:    snap.Counters[p+"inbox_commits"],
			RepairsDenied:   snap.Counters[p+"repairs_denied"],
			QueueVisits:     snap.Counters[p+"queue_visits"],
		}
		counts := [4]int{
			int(snap.Counters[p+"repaired_requests"]), int(snap.Gauges[p+"last_total_requests"]),
			int(snap.Counters[p+"repaired_ops"]), int(snap.Gauges[p+"last_total_ops"]),
		}
		return st, counts, time.Duration(snap.Histograms[p+"repair_ns"].SumNS)
	}
	countsOf := func(c *Controller) [4]int {
		rr, tr, ro, to := c.RepairCounts()
		return [4]int{rr, tr, ro, to}
	}

	reg := obs.New(obs.DefaultRingCap)
	tb, cfg := run(reg)
	snap := reg.Snapshot()
	for _, svc := range []string{"a", "b"} {
		c := tb.ctrls[svc]
		st, counts, dur := fromSnapshot(snap, svc)
		if c.Stats() != st || countsOf(c) != counts || c.RepairDuration() != dur {
			t.Errorf("%s: controller reads %+v %v %v, registry exports %+v %v %v",
				svc, c.Stats(), countsOf(c), c.RepairDuration(), st, counts, dur)
		}
	}
	a := tb.ctrls["a"]
	if st := a.Stats(); st.Requests == 0 || st.RepairsRun == 0 || st.MsgsQueued == 0 || st.MsgsDelivered == 0 || tb.ctrls["b"].Stats().InboxCommits == 0 {
		t.Fatalf("the scenario counted nothing: a %+v, b %+v", st, tb.ctrls["b"].Stats())
	}

	bare, _ := run(nil)
	for _, svc := range []string{"a", "b"} {
		if got, want := bare.ctrls[svc].Stats(), tb.ctrls[svc].Stats(); got != want {
			t.Errorf("%s with no registry: Stats %+v, with one %+v", svc, got, want)
		}
		if got, want := countsOf(bare.ctrls[svc]), countsOf(tb.ctrls[svc]); got != want {
			t.Errorf("%s with no registry: RepairCounts %v, with one %v", svc, got, want)
		}
	}

	// The next incarnation of a, on the same registry, picks up where its
	// predecessor left off.
	before, beforeCounts, beforeDur := a.Stats(), countsOf(a), a.RepairDuration()
	a2 := tb.add(&kvApp{name: "a", mirror: "b"}, cfg)
	if a2.Stats() != before || countsOf(a2) != beforeCounts || a2.RepairDuration() != beforeDur {
		t.Fatalf("rebuilt controller reads %+v %v %v, predecessor ended at %+v %v %v",
			a2.Stats(), countsOf(a2), a2.RepairDuration(), before, beforeCounts, beforeDur)
	}
	tb.call("a", put("y", "v2"))
	if got := a2.Stats().Requests; got != before.Requests+1 {
		t.Fatalf("rebuilt controller counts %d requests, want %d", got, before.Requests+1)
	}
}

// TestHeldAndDeniedCounted: a repair the receiver's Authorize refuses is
// held at the sender with an "unauthorized" notification (Table 2's
// notify), and counted once on the receiver as repairs_denied.
func TestHeldAndDeniedCounted(t *testing.T) {
	reg := obs.New(obs.DefaultRingCap)
	cfg := DefaultConfig()
	cfg.Obs = reg
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, cfg)
	b := tb.add(&kvApp{name: "b", authz: func(AuthzRequest) bool { return false }}, cfg)

	attack := tb.call("a", put("x", "evil"))
	tb.settle(10)
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	tb.settle(10)

	pending := a.Pending()
	if len(pending) != 1 || !pending[0].Held {
		t.Fatalf("sender queue %+v, want one held message", pending)
	}
	var unauthorized int
	for _, n := range a.Notifications() {
		if n.Kind == "unauthorized" && n.DeliveryID == pending[0].DeliveryID {
			unauthorized++
		}
	}
	if unauthorized != 1 {
		t.Fatalf("sender notifications %+v, want one unauthorized for %s", a.Notifications(), pending[0].DeliveryID)
	}
	if got := b.Stats().RepairsDenied; got != 1 {
		t.Fatalf("receiver RepairsDenied = %d, want 1", got)
	}
	if got := reg.Snapshot().Counters["core.b.repairs_denied"]; got != b.Stats().RepairsDenied {
		t.Fatalf("registry core.b.repairs_denied = %d, Stats reads %d", got, b.Stats().RepairsDenied)
	}
}
