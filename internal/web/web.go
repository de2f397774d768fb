// Package web is the request-execution substrate of Aire's prototype: the
// moral equivalent of the Django request-processing layer the paper modified
// (§6).
//
// A Service bundles a router, a versioned store, a repair log, a logical
// clock, and ID generation. An Exec runs one request through the router —
// either in Normal mode (live traffic) or Replay mode (local repair
// re-executing a past request). Both modes funnel every interposition point
// through the same code: model access (tracked via orm.Tx), outgoing HTTP
// calls (delegated to an OutboundFunc installed by the caller), external
// side effects (recorded for post-hoc comparison), and nondeterminism
// (recorded on first execution, replayed thereafter, so re-execution is
// deterministic and repair is stable, §3.3).
package web

import (
	"fmt"
	"sync"
	"time"

	"aire/internal/idgen"
	"aire/internal/orm"
	"aire/internal/repairlog"
	"aire/internal/vclock"
	"aire/internal/vdb"
	"aire/internal/wire"
)

// Handler processes one request.
type Handler func(c *Ctx) wire.Response

// Router maps method+path to handlers. Paths are matched exactly;
// applications pass parameters in form values, as the paper's apps do.
type Router struct {
	mu     sync.RWMutex
	routes map[string]Handler
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{routes: make(map[string]Handler)}
}

// Handle registers a handler for method+path.
func (r *Router) Handle(method, path string, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes[method+" "+path] = h
}

// Lookup finds the handler for method+path.
func (r *Router) Lookup(method, path string) (Handler, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.routes[method+" "+path]
	return h, ok
}

// Service is one Aire-enabled web service's runtime state.
type Service struct {
	// Name is the service's identity on the transport.
	Name string
	// Clock is the service's logical timeline (§3.1: services do not share
	// a global clock).
	Clock *vclock.Clock
	// IDs mints request/response/token identifiers.
	IDs *idgen.Gen
	// Store is the versioned database.
	Store *vdb.Store
	// Log is the repair log.
	Log *repairlog.Log
	// Schema declares the application's models.
	Schema *orm.Schema
	// Router dispatches requests to application handlers.
	Router *Router

	// TimeSource supplies the application-visible wall clock; it is
	// recorded as nondeterminism on first execution. Defaults to Unix
	// seconds.
	TimeSource func() int64
	// RandSource supplies application-visible randomness, recorded the
	// same way.
	RandSource func() int64

	// Mu serializes request execution and repair: like the paper's
	// prototype, a service does not run normal execution concurrently with
	// repair (§9).
	Mu sync.Mutex

	// Outbox accumulates performed external effects (e.g. sent emails), in
	// order. Repair cannot undo these; it compensates instead (§7.1).
	outboxMu sync.Mutex
	outbox   []repairlog.Effect
}

// NewService constructs a service with fresh substrate state.
func NewService(name string) *Service {
	var seed int64 = 1
	s := &Service{
		Name:   name,
		Clock:  &vclock.Clock{},
		IDs:    idgen.New(name),
		Store:  vdb.NewStore(),
		Log:    repairlog.New(true),
		Schema: orm.NewSchema(),
		Router: NewRouter(),
		TimeSource: func() int64 {
			return time.Now().Unix()
		},
	}
	s.RandSource = func() int64 {
		// Deterministic default PRNG (xorshift) so tests are stable; apps
		// needing real entropy can replace RandSource.
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		if seed < 0 {
			return -seed
		}
		return seed
	}
	return s
}

// PerformEffect appends an external effect to the service outbox.
func (s *Service) PerformEffect(e repairlog.Effect) {
	s.outboxMu.Lock()
	defer s.outboxMu.Unlock()
	s.outbox = append(s.outbox, e)
}

// Outbox returns a copy of all performed external effects.
func (s *Service) Outbox() []repairlog.Effect {
	s.outboxMu.Lock()
	defer s.outboxMu.Unlock()
	return append([]repairlog.Effect(nil), s.outbox...)
}

// Mode selects how an Exec runs.
type Mode int

const (
	// Normal executes live traffic: nondeterminism is sampled fresh and
	// outgoing calls hit the network.
	Normal Mode = iota
	// Replay re-executes a past request during local repair: recorded
	// nondeterminism is consumed and outgoing calls are diffed against the
	// log (§3.2).
	Replay
)

// OutboundFunc handles one outgoing call made by a handler. It returns the
// response the handler observes plus the call record to log. seq is the
// call's position within the request.
type OutboundFunc func(seq int, target string, req wire.Request) (wire.Response, repairlog.Call)

// Exec runs one request against a service.
type Exec struct {
	Svc *Service
	// Rec is the record being produced (Normal/fresh) or re-produced
	// (Replay). Exec overwrites its Resp, Reads, Scans, Writes, Calls,
	// Nondet, and Effects fields; the caller commits the record to the log.
	Rec *Record
	// Mode selects Normal or Replay behavior for nondeterminism.
	Mode Mode
	// Gen is the repair generation used to derive fresh versioned-object
	// IDs (§5.2); 0 on original execution.
	Gen int
	// Outbound handles outgoing calls; must be non-nil if the app calls out.
	Outbound OutboundFunc
	// Bare disables all Aire interposition (dependency tracking, nondeterminism
	// recording); used only by the no-Aire baseline of the Table 4
	// overhead experiments.
	Bare bool

	// prior holds the nondeterminism recorded by the previous execution.
	prior     []repairlog.Nondet
	nondetIdx int
	objSeq    int
	callSeq   int
	effectSeq int
	deps      *orm.Deps
	calls     []repairlog.Call
	nondet    []repairlog.Nondet
	effects   []repairlog.Effect
}

// Record is an alias for the repair log record type, re-exported for
// convenience of Exec callers.
type Record = repairlog.Record

// readScratch recycles the orm.Deps requests collect their dependencies
// in. A request reading many distinct keys would otherwise grow a fresh
// read slice and key set each time, so each Run borrows grown ones and the
// record keeps an exact-size copy of the reads. A pool, unlike a
// per-Service scratch, stays correct when requests of one service run
// concurrently.
var readScratch = sync.Pool{New: func() any { return new(orm.Deps) }}

// Run executes the request and fills in the record. The caller must hold
// Svc.Mu.
func (e *Exec) Run() wire.Response {
	e.prior = e.Rec.Nondet
	e.deps = nil
	if !e.Bare {
		e.deps = readScratch.Get().(*orm.Deps)
	}
	e.calls = nil
	e.nondet = nil
	e.effects = nil
	e.nondetIdx, e.objSeq, e.callSeq, e.effectSeq = 0, 0, 0, 0

	ctx := &Ctx{exec: e, Req: e.Rec.Req}
	ctx.DB = &orm.Tx{
		Store:  e.Svc.Store,
		Schema: e.Svc.Schema,
		At:     e.Rec.TS,
		ReqID:  e.Rec.ID,
		Deps:   e.deps,
	}

	resp := e.dispatch(ctx)

	e.Rec.Resp = resp
	e.Rec.Reads, e.Rec.Scans, e.Rec.Writes = nil, nil, nil
	if d := e.deps; d != nil {
		if len(d.Reads) > 0 {
			e.Rec.Reads = make([]repairlog.ReadDep, len(d.Reads))
			copy(e.Rec.Reads, d.Reads)
		}
		e.Rec.Scans, e.Rec.Writes = d.Scans, d.Writes
		d.Reset()
		readScratch.Put(d)
		e.deps = nil
	}
	e.Rec.Calls = e.calls
	e.Rec.Nondet = e.nondet
	e.Rec.Effects = e.effects
	return resp
}

func (e *Exec) dispatch(ctx *Ctx) (resp wire.Response) {
	h, ok := e.Svc.Router.Lookup(ctx.Req.Method, ctx.Req.Path)
	if !ok {
		return wire.NewResponse(404, fmt.Sprintf("no route %s %s", ctx.Req.Method, ctx.Req.Path))
	}
	defer func() {
		if p := recover(); p != nil {
			resp = wire.NewResponse(500, fmt.Sprintf("handler panic: %v", p))
		}
	}()
	return h(ctx)
}

// next returns the next value of the named nondeterminism source: the
// recorded value when replaying in lockstep, a fresh one otherwise. Either
// way the value is re-recorded so future repairs replay this execution.
func (e *Exec) next(kind string, fresh func() int64) int64 {
	if e.Bare {
		return fresh()
	}
	var v int64
	if e.Mode == Replay && e.nondetIdx < len(e.prior) && e.prior[e.nondetIdx].Kind == kind {
		v = e.prior[e.nondetIdx].Value
	} else {
		v = fresh()
	}
	e.nondetIdx++
	e.nondet = append(e.nondet, repairlog.Nondet{Kind: kind, Value: v})
	return v
}

// Ctx is the handler-visible request context.
type Ctx struct {
	exec *Exec
	// Req is the request being handled.
	Req wire.Request
	// DB is the request-scoped, dependency-tracked model transaction.
	DB *orm.Tx
}

// Form returns a request form value.
func (c *Ctx) Form(k string) string { return c.Req.Form[k] }

// Header returns a request header value.
func (c *Ctx) Header(k string) string { return c.Req.Header[k] }

// From returns the transport-authenticated name of the calling service
// ("" for external clients).
func (c *Ctx) From() string { return c.exec.Rec.From }

// ReqID returns the Aire request ID assigned to this request.
func (c *Ctx) ReqID() string { return c.exec.Rec.ID }

// TS returns the request's logical timestamp on the service timeline.
func (c *Ctx) TS() int64 { return c.exec.Rec.TS }

// Now returns the application-visible wall-clock time. The value is
// recorded and replayed across repairs.
func (c *Ctx) Now() int64 { return c.exec.next("now", c.exec.Svc.TimeSource) }

// Rand returns recorded-and-replayed randomness.
func (c *Ctx) Rand() int64 { return c.exec.next("rand", c.exec.Svc.RandSource) }

// NewID mints a deterministic object ID stable across re-executions of this
// request, so repaired state converges with the attack-free timeline.
func (c *Ctx) NewID() string {
	id := idgen.Derived(c.exec.Rec.ID, c.exec.objSeq)
	c.exec.objSeq++
	return id
}

// NewVersionID mints a deterministic object ID scoped to the current repair
// generation. Versioned APIs use it for immutable version objects: replaying
// put(x,c) must create a fresh version (v5) on the repaired branch rather
// than collide with the original immutable v3 (Figure 3).
func (c *Ctx) NewVersionID() string {
	base := c.exec.Rec.ID
	if c.exec.Gen > 0 {
		base = fmt.Sprintf("%s~%d", base, c.exec.Gen)
	}
	id := idgen.Derived(base, c.exec.objSeq)
	c.exec.objSeq++
	return id
}

// Call issues an outgoing HTTP call to another service. During normal
// operation it goes to the network (with Aire headers attached by the
// controller); during replay it is diffed against the logged calls (§3.2).
func (c *Ctx) Call(target string, req wire.Request) wire.Response {
	if c.exec.Outbound == nil {
		panic(fmt.Sprintf("web: service %s made outgoing call with no Outbound installed", c.exec.Svc.Name))
	}
	seq := c.exec.callSeq
	c.exec.callSeq++
	resp, call := c.exec.Outbound(seq, target, req)
	call.Seq = seq
	c.exec.calls = append(c.exec.calls, call)
	return resp
}

// Effect records an external side effect (an email, an SMS, a webhook to a
// non-Aire system). Effects are performed by the controller after the
// request commits; during repair they are compared against the original and
// compensated if they changed (§7.1).
func (c *Ctx) Effect(kind, payload string) {
	seq := c.exec.effectSeq
	c.exec.effectSeq++
	c.exec.effects = append(c.exec.effects, repairlog.Effect{Seq: seq, Kind: kind, Payload: payload})
}

// OK builds a 200 response with a string body.
func (c *Ctx) OK(body string) wire.Response { return wire.NewResponse(200, body) }

// OKBytes is OK for a body the handler rendered into a []byte: the
// response takes body over instead of copying it, so the handler must not
// touch it afterwards. A nil body answers as OK("") does.
func (c *Ctx) OKBytes(body []byte) wire.Response {
	if body == nil {
		body = []byte{}
	}
	return wire.Response{Status: 200, Header: map[string]string{}, Body: body}
}

// Error builds an error response with the given status and message.
func (c *Ctx) Error(status int, msg string) wire.Response { return wire.NewResponse(status, msg) }
