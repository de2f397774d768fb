package core

import (
	"strings"
	"sync"
	"testing"

	"aire/internal/obs"
	"aire/internal/transport"
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
// registry configured, every instrumentation site must degenerate to a
// nil check — zero allocations on the hot path.
func TestObsDisabledZeroAlloc(t *testing.T) {
	met := newCtrlMetrics(nil, "z")
	if met.reg != nil || met.ring != nil {
		t.Fatal("nil registry must resolve nil reg/ring")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		met.requests.Inc()
		met.msgsQueued.Add(2)
		met.msgsDelivered.Inc()
		met.queueDepth.Set(7)
		met.deliverNS.ObserveNS(123)
		met.repairNS.ObserveNS(456)
		met.ring.Record(obs.Span{})
		if met.requests.Value() != 0 || met.queueDepth.Value() != 0 {
			t.Fatal("nil handles must read zero")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f allocs/op, want 0", allocs)
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
