package obs

import (
	"strings"
	"testing"
)

func TestCounterStripedSum(t *testing.T) {
	r := New(0)
	c := r.Counter("c")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := c.Value(); got != 8000 {
		t.Fatalf("striped counter = %d, want 8000", got)
	}
	if r.Counter("c") != c {
		t.Fatal("same name must resolve the same counter")
	}
}

func TestGauge(t *testing.T) {
	g := New(0).Gauge("g")
	g.Set(41)
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %d, want -7", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New(0)
	h := r.Histogram("h")
	// 100 samples at ~1ms, 10 at ~100ms: p50 lands in the 1ms region,
	// p99 in the 100ms region.
	for i := 0; i < 100; i++ {
		h.ObserveNS(1_000_000)
	}
	for i := 0; i < 10; i++ {
		h.ObserveNS(100_000_000)
	}
	s := h.snapshot()
	if s.Count != 110 {
		t.Fatalf("count = %d, want 110", s.Count)
	}
	if s.MaxNS < 100_000_000 {
		t.Fatalf("max = %d, want >= 1e8", s.MaxNS)
	}
	// Power-of-two buckets: quantiles are bucket-region estimates, not
	// exact values — assert the region.
	p50, p99 := s.QuantileNS(0.50), s.QuantileNS(0.99)
	if p50 < 250_000 || p50 > 2_000_000 {
		t.Fatalf("p50 = %d, want in the 1ms bucket region", p50)
	}
	if p99 < 25_000_000 || p99 > 200_000_000 {
		t.Fatalf("p99 = %d, want in the 100ms bucket region", p99)
	}
}

func TestRingWrap(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 6; i++ {
		r.Record(Span{Hop: i})
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("buffered = %d, want 4", len(spans))
	}
	for i, s := range spans {
		if s.Hop != i+2 { // oldest two (0, 1) overwritten
			t.Fatalf("span %d has hop %d, want %d", i, s.Hop, i+2)
		}
	}
	if r.Total() != 6 {
		t.Fatalf("total = %d, want 6", r.Total())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").ObserveNS(1)
	r.Ring().Record(Span{})
	if r.Counter("x") != nil || r.Ring() != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if n := r.Ring().Total(); n != 0 {
		t.Fatalf("nil ring total = %d", n)
	}
}

// TestWavesReconstruction feeds a synthetic two-hop cascade (with a
// duplicate delivery and an in-flight straggler) through Waves and checks
// the reconstructed shape.
func TestWavesReconstruction(t *testing.T) {
	spans := []Span{
		{Wave: "w1", Hop: 0, Service: "s0", Kind: SpanRepair, Subject: "walk", StartNS: 0, EndNS: 5},
		{Wave: "w1", Hop: 1, Service: "s0", Kind: SpanEnqueue, Subject: "d1", Peer: "s1", StartNS: 10, EndNS: 10},
		{Wave: "w1", Hop: 1, Service: "s0", Kind: SpanDeliver, Subject: "d1", Peer: "s1", StartNS: 40, EndNS: 50},
		// Duplicate delivery attempt: pairing must take the LAST end.
		{Wave: "w1", Hop: 1, Service: "s0", Kind: SpanReconcile, Subject: "d1", Peer: "s1", StartNS: 55, EndNS: 60},
		{Wave: "w1", Hop: 2, Service: "s1", Kind: SpanEnqueue, Subject: "d2", Peer: "s2", StartNS: 70, EndNS: 70},
		// d2 never reconciles: contributes depth, no latency.
		{Wave: "w2", Hop: 0, Service: "s9", Kind: SpanRepair, Subject: "totals", StartNS: 0, EndNS: 1},
	}
	waves := Waves(spans)
	if len(waves) != 2 {
		t.Fatalf("got %d waves, want 2", len(waves))
	}
	w1 := waves[0]
	if w1.Wave != "w1" || w1.Origin != "s0" || w1.MaxHop != 2 || w1.Spans != 5 {
		t.Fatalf("w1 = %+v", w1)
	}
	if len(w1.Hops) != 1 || w1.Hops[0].Hop != 1 {
		t.Fatalf("w1 hops = %+v, want exactly hop 1 paired", w1.Hops)
	}
	if h := w1.Hops[0]; h.Msgs != 1 || h.MaxLatencyNS != 50 || h.SumLatencyNS != 50 {
		t.Fatalf("hop 1 = %+v, want 1 msg at 50ns (enqueue 10 → reconcile 60)", h)
	}
	if waves[1].Origin != "s9" || waves[1].MaxHop != 0 {
		t.Fatalf("w2 = %+v", waves[1])
	}
}

func TestSnapshotAndPromText(t *testing.T) {
	r := New(8)
	r.Counter("core.a.requests").Add(3)
	r.Gauge("core.a.queue_depth").Set(2)
	r.Histogram("core.a.deliver_ns").ObserveNS(1_500_000)
	s := r.Snapshot()
	if s.Counters["core.a.requests"] != 3 || s.Gauges["core.a.queue_depth"] != 2 {
		t.Fatalf("snapshot = %+v", s)
	}

	var b strings.Builder
	s.WriteProm(&b)
	text := b.String()
	for _, want := range []string{
		"# TYPE core_a_requests counter",
		"core_a_requests 3",
		"core_a_queue_depth 2",
		`core_a_deliver_ns_bucket{le="+Inf"} 1`,
		"core_a_deliver_ns_count 1",
		"core_a_deliver_ns_sum 0.0015",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom text missing %q:\n%s", want, text)
		}
	}

	// The human-readable form is sorted and stable.
	if out := s.String(); !strings.Contains(out, "core.a.requests") {
		t.Errorf("snapshot string missing counter:\n%s", out)
	}
}
