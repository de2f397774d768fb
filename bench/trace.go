package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aire/internal/core"
	"aire/internal/transport"
	"aire/internal/wire"
)

// Tracing is outside-in: spans are recorded only by wrappers this package
// puts around the public seams of the system — the core.Caller every
// service sends with, the transport.Handler every listener serves, and the
// wal.Options hooks — never from inside it. A nil *tracer means tracing is
// off and no wrapper is installed at all, so the untraced pass runs the
// system exactly as a deployment would.

// Layers a span can belong to.
const (
	layerOp        = "op"        // the caller-observed timed op (root)
	layerTransport = "transport" // one Caller.Call: self time is the hop
	layerCore      = "core"      // one Controller.HandleWire
	layerBare      = "bare"      // one BareRunner.HandleWire
	layerWAL       = "wal"       // one append or one fsync
)

// span is one timed call across a public seam. Start and End are
// nanoseconds since the tracer's epoch; Parent is the ID of the span that
// caused it (0 for a root: a timed op, a pump delivery, a WAL write).
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Svc    string `json:"svc"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

type svcOp struct {
	svc string
	op  int64
}

type tracer struct {
	epoch time.Time
	// on gates recording: workloads with untimed traffic between timed
	// sections (repair.wave's attack and dependents) switch it off there,
	// so per-op layer sums cover the timed op only.
	on atomic.Bool
	// curOp is the op a request that carries no generated key belongs to
	// (repair carriers); only single-client workloads rely on it.
	curOp atomic.Int64

	mu    sync.Mutex
	spans []span
	// handling[svc,op] is the HandleWire span now running op on svc: the
	// parent of the calls that handler makes. calling[svc,op] is the
	// Caller.Call span now in flight to svc for op: the parent of the
	// HandleWire it causes. Ops are unique among concurrent requests, and
	// the pump never has two deliveries to one peer in flight, so neither
	// map is ever ambiguous.
	handling map[svcOp]int32
	calling  map[svcOp]int32
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), handling: map[svcOp]int32{}, calling: map[svcOp]int32{}}
	t.on.Store(true)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record switches recording on or off; a nil tracer ignores it.
func (t *tracer) record(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// opOf attributes a request to its op: by the generated key it carries,
// else to the current op.
func (t *tracer) opOf(req wire.Request) int64 {
	for _, f := range [...]string{"key", "dst"} {
		if k, ok := req.Form[f]; ok {
			if op := opOfKey(k); op >= 0 {
				return op
			}
		}
	}
	return t.curOp.Load()
}

// begin opens a span and returns its ID (0 when recording is gated off).
// Under the one lock it also resolves the span's parent — parents[parent],
// unless parent is the zero key — and registers the span in register[self]
// as the parent of what it will cause.
func (t *tracer) begin(name, layer, svc string, op int64, parents map[svcOp]int32, parent svcOp, register map[svcOp]int32, self svcOp) int32 {
	if !t.on.Load() {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Svc: svc, Op: op, Parent: parents[parent], Start: start})
	register[self] = id
	t.mu.Unlock()
	return id
}

// end closes a span and withdraws its registration.
func (t *tracer) end(id int32, register map[svcOp]int32, self svcOp) {
	if id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	if register[self] == id {
		delete(register, self)
	}
	t.mu.Unlock()
}

// beginOp opens the root span of one timed op, makes it the current op,
// and registers it as the parent of the calls the client makes for it.
func (t *tracer) beginOp(name string, op int64) int32 {
	if t == nil {
		return 0
	}
	t.curOp.Store(op)
	return t.begin(name, layerOp, clientName, op, nil, svcOp{}, t.handling, svcOp{clientName, op})
}

func (t *tracer) endOp(id int32, op int64) {
	if t != nil {
		t.end(id, t.handling, svcOp{clientName, op})
	}
}

// walHooks returns wal.Options hooks that record one root span per append
// and per fsync that reached the disk on svc's log.
func (t *tracer) walHooks(svc string) (onAppend, onSync func(time.Duration)) {
	record := func(name string) func(time.Duration) {
		return func(d time.Duration) {
			if !t.on.Load() {
				return
			}
			end := t.now()
			t.mu.Lock()
			id := int32(len(t.spans) + 1)
			t.spans = append(t.spans, span{ID: id, Name: name, Layer: layerWAL, Svc: svc, Op: -1, Start: end - int64(d), End: end})
			t.mu.Unlock()
		}
	}
	return record("append"), record("fsync")
}

// isRepairPlane reports whether a request path is Aire's own API: such
// calls are made by the pump (roots), not by a request handler.
func isRepairPlane(path string) bool { return strings.HasPrefix(path, "/aire/") }

// clientName is the benchmark's own client as a span's service (the
// transport knows it as from == "").
const clientName = "client"

// tracedCaller wraps the core.Caller a service (or the benchmark's
// client) sends with.
type tracedCaller struct {
	inner core.Caller
	t     *tracer
}

func (c tracedCaller) Call(from, to string, req wire.Request) (wire.Response, error) {
	t := c.t
	op := t.opOf(req)
	sender := from
	if sender == "" {
		sender = clientName
	}
	// The handler now running op on the sender caused this call, unless
	// it is a service's repair-plane call: the pump made that one.
	parent := svcOp{sender, op}
	if isRepairPlane(req.Path) && from != "" {
		parent = svcOp{}
	}
	self := svcOp{to, op}
	id := t.begin("call "+req.Path, layerTransport, sender, op, t.handling, parent, t.calling, self)
	resp, err := c.inner.Call(from, to, req)
	t.end(id, t.calling, self)
	return resp, err
}

// tracedHandler wraps the transport.Handler a listener serves.
type tracedHandler struct {
	inner transport.Handler
	svc   string
	layer string
	t     *tracer
}

func (h tracedHandler) HandleWire(from string, req wire.Request) wire.Response {
	t := h.t
	self := svcOp{h.svc, t.opOf(req)}
	id := t.begin("handle "+req.Path, h.layer, h.svc, self.op, t.calling, self, t.handling, self)
	resp := h.inner.HandleWire(from, req)
	t.end(id, t.handling, self)
	return resp
}

// snapshot returns the finished spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// maxTraceFileSpans caps the sidecar file (every span still feeds the
// per-layer numbers): a 10 s put.aire pass records ~150k spans.
const maxTraceFileSpans = 20000

func writeTrace(path string, spans []span) error {
	if len(spans) > maxTraceFileSpans {
		spans = spans[:maxTraceFileSpans]
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus its child
// spans' durations. Children of one parent run one after another here
// (a handler's mirror calls are sequential), so durations add up without
// overlap. WAL spans have no parent — the hooks cannot name one — and are
// accounted for per service by walInsideHandlers.
func selfTimes(spans []span) map[int32]int64 {
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// walInsideHandlers returns, per service, how much WAL time fell inside
// that service's HandleWire spans. The WAL runs on a handler's goroutine,
// so this much of the handlers' summed self time was the WAL's, whichever
// handler each write belonged to; WAL writes the pump makes outside any
// handler are left out.
func walInsideHandlers(spans []span) map[string]int64 {
	handlers := map[string][][2]int64{}
	for _, s := range spans {
		if s.Layer == layerCore {
			handlers[s.Svc] = append(handlers[s.Svc], [2]int64{s.Start, s.End})
		}
	}
	for svc, iv := range handlers {
		handlers[svc] = mergeIntervals(iv)
	}
	inside := map[string]int64{}
	for _, s := range spans {
		if s.Layer == layerWAL {
			inside[s.Svc] += overlap(handlers[s.Svc], s.Start, s.End)
		}
	}
	return inside
}

func mergeIntervals(iv [][2]int64) [][2]int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var out [][2]int64
	for _, v := range iv {
		if n := len(out); n > 0 && v[0] <= out[n-1][1] {
			if v[1] > out[n-1][1] {
				out[n-1][1] = v[1]
			}
			continue
		}
		out = append(out, v)
	}
	return out
}

// overlap sums how much of [start,end) the merged, sorted intervals cover.
func overlap(merged [][2]int64, start, end int64) int64 {
	i := sort.Search(len(merged), func(i int) bool { return merged[i][1] > start })
	var total int64
	for ; i < len(merged) && merged[i][0] < end; i++ {
		lo, hi := merged[i][0], merged[i][1]
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		total += hi - lo
	}
	return total
}
