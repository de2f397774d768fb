// Package obs is the repair-plane observability subsystem: a
// dependency-free metrics registry (counters, gauges, windowed
// histograms) plus wave tracing (span records correlated by the
// Aire-Trace-Id / Aire-Trace-Hop wire context, §2.3's repair
// propagation made visible).
//
// Design rules, in order of importance:
//
//  1. Disabled must be free. Every handle type is nil-safe: a nil
//     *Counter / *Gauge / *Histogram / *Ring accepts updates and does
//     nothing, with zero allocations. Components cache handles once at
//     construction; when no Registry is configured the handles are nil
//     and the instrumented hot path degenerates to a nil check
//     (asserted by BenchmarkObsOverhead and TestObsDisabledZeroAlloc).
//
//  2. Enabled must stay off the hot-path locks. Handles are resolved
//     under the registry mutex once, at setup; updates are lock-free
//     atomics, and counters stripe across cache-line-padded shards so
//     concurrent pump workers do not collide on one word.
//
//  3. Observation must not perturb the observed schedule. Nothing in
//     this package yields, sleeps, blocks on channels, or consumes IDs
//     from the deterministic generators; under internal/dsched an
//     obs-on run takes byte-identical schedules to an obs-off run
//     (asserted across seeds by TestSchedObsDigestInvariant).
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// counterStripes is the per-counter shard count; power of two.
const counterStripes = 8

// pad64 is an int64 padded to a cache line so adjacent stripes do not
// false-share.
type pad64 struct {
	v atomic.Int64
	_ [56]byte
}

// stripeHint picks a shard for the calling goroutine. Goroutine stacks
// live in distinct allocations, so the address of a stack local is a
// cheap per-goroutine discriminator; any distribution is correct
// (Value sums all stripes), this only spreads contention.
func stripeHint() int {
	var x byte
	return int(uintptr(unsafe.Pointer(&x)) >> 10 & (counterStripes - 1))
}

// Counter is a monotonically increasing striped counter.
type Counter struct {
	name    string
	stripes [counterStripes]pad64
}

// Add increments the counter. Nil-safe and allocation-free when nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.stripes[stripeHint()].v.Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes. Nil-safe (returns 0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var t int64
	for i := range c.stripes {
		t += c.stripes[i].v.Load()
	}
	return t
}

// Gauge is a last-write-wins instantaneous value.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set records the current value. Nil-safe and allocation-free when nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last value set. Nil-safe (returns 0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count: powers of two in microseconds from
// 1µs (index 0 is ≤1µs) up to ~1s, plus one overflow bucket.
const histBuckets = 22

// Histogram is a lock-free latency histogram with exponential
// (power-of-two microsecond) buckets. It accumulates forever; live
// state is never reset, so a windowed view is the difference of two
// Snapshots taken by the reader.
type Histogram struct {
	name    string
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a duration in nanoseconds to a bucket index.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	us := ns / 1000
	// bits.Len64(0)=0 and bits.Len64(1)=1 both land in bucket 0 (≤1µs).
	b := bits.Len64(uint64(us))
	if b > 0 {
		b--
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// ObserveNS records one sample, in nanoseconds. Nil-safe and
// allocation-free when nil.
func (h *Histogram) ObserveNS(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// HistSnapshot is one histogram's consistent-enough view (each field is
// read atomically; cross-field skew is bounded by in-flight samples).
type HistSnapshot struct {
	Count   int64              `json:"count"`
	SumNS   int64              `json:"sum_ns"`
	MaxNS   int64              `json:"max_ns"`
	Buckets [histBuckets]int64 `json:"buckets"`
}

// QuantileNS estimates the q-quantile (0 < q ≤ 1) in nanoseconds by
// linear interpolation within the containing bucket.
func (s HistSnapshot) QuantileNS(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, n := range s.Buckets {
		if seen+n > rank {
			// Bucket i spans (2^(i-1), 2^i] microseconds (bucket 0 is
			// ≤1µs). Interpolate within it.
			lo, hi := int64(0), int64(1000)
			if i > 0 {
				lo = int64(1000) << (i - 1)
				hi = int64(1000) << i
			}
			if n == 0 {
				return hi
			}
			frac := float64(rank-seen) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		seen += n
	}
	return s.MaxNS
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		SumNS: h.sumNS.Load(),
		MaxNS: h.maxNS.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Snapshot is a point-in-time copy of every registered metric, with
// deterministic (sorted) iteration order for tests and exposition.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Names returns the sorted metric names of one kind, for deterministic
// rendering.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Registry is the root of the metrics tree. The zero value is not
// usable; call New. A nil *Registry is the disabled registry: every
// handle accessor returns a nil handle and every nil handle is a no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	ring       *Ring
}

// New builds an enabled registry whose span ring holds up to ringCap
// spans (≤0 picks DefaultRingCap).
func New(ringCap int) *Registry {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		ring:       newRing(ringCap),
	}
}

// Counter returns (creating if needed) the named counter. Nil registry
// returns a nil (no-op) handle. Resolve once at setup, not per update.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram; nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{name: name}
		r.histograms[name] = h
	}
	return h
}

// Ring returns the registry's span ring; nil-safe (nil registry → nil
// ring → Record is a no-op).
func (r *Registry) Ring() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}

// Snapshot copies every metric. Safe to call concurrently with updates;
// nil-safe (returns empty maps).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		hists = append(hists, h)
	}
	r.mu.Unlock()
	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range gauges {
		s.Gauges[g.name] = g.Value()
	}
	for _, h := range hists {
		s.Histograms[h.name] = h.snapshot()
	}
	return s
}

// String renders the snapshot compactly (sorted), mostly for tests.
func (s Snapshot) String() string {
	var b []byte
	for _, k := range sortedKeys(s.Counters) {
		b = fmt.Appendf(b, "counter %s %d\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		b = fmt.Appendf(b, "gauge %s %d\n", k, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		b = fmt.Appendf(b, "hist %s count=%d p50=%dns p99=%dns max=%dns\n",
			k, h.Count, h.QuantileNS(0.50), h.QuantileNS(0.99), h.MaxNS)
	}
	return string(b)
}
