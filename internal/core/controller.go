// Package core implements the Aire repair controller — the paper's primary
// contribution (§2.2, §3, §4).
//
// One Controller fronts each web service. During normal operation it
// intercepts every incoming request and outgoing call, assigns Aire
// identifiers, and maintains the repair log. When repair is requested —
// locally by an administrator, or remotely through the repair API of
// Table 1 — it runs Warp-style local repair, and queues repair messages for
// affected peers in per-service outgoing queues that survive peer downtime
// (asynchronous repair, §3). Access control for every repair message is
// delegated to the application through the authorize/notify/retry interface
// of Table 2 (§4).
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"aire/internal/audit"
	"aire/internal/deliver"
	"aire/internal/obs"
	"aire/internal/orm"
	"aire/internal/repairlog"
	"aire/internal/sched"
	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/web"
	"aire/internal/wire"
)

// App is the contract between Aire and the web service it protects
// (Table 2, plus route/model registration).
type App interface {
	// Name is the service's identity on the transport.
	Name() string
	// Register installs the application's models and routes on the service.
	Register(svc *web.Service)
	// Authorize decides whether a repair message is allowed (Table 2). The
	// application inspects the original and repaired payloads, the carrier
	// request (which holds the repair message's credentials), and a
	// read-only snapshot of the database at the original request's
	// execution time (§4). Authorize runs under the service lock so the
	// snapshots it reads are consistent even while repair or the pump is
	// active: it must be fast and must not call back into the service or
	// controller (no requests, no ApplyLocal, no Retry or Drop) — read
	// only from ac. Handlers registered in Register run under the same
	// lock and share the restriction.
	Authorize(ac AuthzRequest) bool
}

// Notifier is optionally implemented by applications that want repair
// problem notifications pushed to them (Table 2's notify function);
// notifications are always also retrievable from Controller.Notifications.
// Notify runs outside every controller lock, so it may call Retry or Drop.
type Notifier interface {
	Notify(n Notification)
}

// AuthzRequest carries everything an application's Authorize needs.
type AuthzRequest struct {
	// Kind is the repair operation: replace, delete, create, or
	// replace_response.
	Kind warp.OutKind
	// From is the transport-authenticated sender of the repair message.
	From string
	// OriginalFrom is the transport-authenticated sender of the original
	// request being repaired ("" for external clients or create).
	OriginalFrom string
	// Original is the request being repaired (zero for create).
	Original wire.Request
	// OriginalResp is its logged response (zero for create).
	OriginalResp wire.Response
	// Repaired is the corrected request (replace/create).
	Repaired wire.Request
	// RepairedResp is the corrected response (replace_response).
	RepairedResp wire.Response
	// Carrier is the repair API request itself; its headers and form carry
	// the repair credentials.
	Carrier wire.Request
	// Snapshot reads the database as of the original request's execution
	// time (§4: "read-only access to a snapshot of Aire's versioned
	// database at the time when the original request executed").
	Snapshot *orm.Tx
	// Now reads the database at the present time, for policies that check
	// currently-valid credentials (§7.2: expired tokens reject repair until
	// refreshed).
	Now *orm.Tx
}

// Notification reports a repair problem to the application (Table 2 notify).
type Notification struct {
	// DeliveryID names the queued message ("" for local and peer notices).
	DeliveryID string
	// Kind classifies the problem: "unreachable", "rejected",
	// "unauthorized", "gone", "no-propagation", "compensation", or "leak".
	Kind string
	// Target is the peer service involved.
	Target string
	// RepairType is the repair operation involved.
	RepairType string
	// Detail is a human-readable description.
	Detail string
}

// Caller abstracts the transport (the in-memory bus or the HTTP adapter).
type Caller interface {
	Call(from, to string, req wire.Request) (wire.Response, error)
}

// Config tunes a controller. It has six fields: BatchPolicy, Admission,
// Clock, Sched, Obs and Topology. The pump's shape is fixed (pumpWorkers
// concurrent peers, passes paced every pumpInterval).
type Config struct {
	// BatchPolicy sizes each peer's claim from its backlog: the whole
	// backlog, clamped to the policy's [Min, Max] (the zero value means
	// [1, 64]). Every background pump pass snapshots per-peer backlogs,
	// asks the policy for a limit per peer at a dedicated scheduler
	// decision point ("batch-policy"), and claims under those limits;
	// Admission may cap a claim further. Flush ignores it: one synchronous
	// pass attempts every deliverable message.
	BatchPolicy AdaptiveBatch
	// Admission bounds the share of pump capacity repair cascades may
	// consume so a repair storm cannot starve user-visible traffic (see
	// Admission; zero fields take DefaultAdmission's values). Flush
	// ignores it.
	Admission Admission
	// Clock supplies the time used for backoff scheduling (nil means
	// time.Now). Tests inject a fake clock for deterministic backoff.
	Clock func() time.Time
	// Sched is the concurrency substrate the background pump runs on (nil
	// means real goroutines — sched.Goroutines()). The deterministic
	// simulator injects internal/dsched here so pump workers, backoff
	// sleeps, and shutdown interleave under a seeded schedule.
	Sched sched.Scheduler
	// Obs, when non-nil, attaches the repair-plane observability registry
	// (internal/obs): the controller's counters are then the registry's
	// core.<svc>.* series, and it also records latency histograms and
	// wave-trace spans. Nil keeps the counters on detached handles (Stats
	// reads the same numbers either way) and skips spans and the clock
	// reads behind latencies, at 0 allocs/op (BenchmarkObsOverhead).
	// Because wave-trace context is protocol state minted and persisted
	// unconditionally, an obs-on run takes byte-identical schedules to an
	// obs-off run.
	Obs *obs.Registry
	// Topology is the shared key→shard map for every service in the
	// deployment (shard.go): the controller resolves each repair carrier
	// to the peer shard that owns it (peerDest), so a sender to a
	// partitioned peer needs the peer's map. Must be set before recovery
	// so WAL replay rebuilds version vectors under the same per-(peer,
	// shard) keys the live path uses. Nil means every peer has one shard.
	Topology *ShardTopology
}

// DefaultConfig returns the configuration used throughout the experiments:
// every field at its zero value, which each field documents.
func DefaultConfig() Config {
	return Config{}
}

// PendingMsg is a repair message in the outgoing queue.
type PendingMsg struct {
	// DeliveryID is the message's one name: Retry, Drop and notifications
	// name it, and every delivery attempt stamps it as wire.HdrDeliveryID
	// so the peer's dedup inbox recognizes re-deliveries. It is stable
	// across attempts and content revisions, persisted with the queue, and
	// minted from the service's persisted ID counter, so it survives
	// crash-restart without colliding.
	DeliveryID string `json:"delivery_id,omitempty"`
	// Msg is the repair operation to deliver.
	Msg warp.OutMsg
	// Attempts counts the times a reachable peer rejected this message;
	// transport failures are charged to the peer's backoff, not here.
	Attempts int
	// Held marks a parked message: the peer refused it as unauthorized, or
	// a reachable peer rejected it MaxAttempts times. An unreachable peer
	// never parks a message. Only Retry revives it.
	Held bool
	// LastErr describes the most recent failure.
	LastErr string
	// Gen counts content changes (queue collapsing, Retry). A delivery in
	// flight reconciles only against the generation it claimed, so a
	// message superseded mid-flight stays queued for another pass; the
	// claimed generation is also stamped on the wire (wire.HdrGeneration)
	// so the peer can discard a delayed copy of superseded content. It is
	// persisted so generations stay monotonic across crash-restart.
	Gen uint64 `json:"gen,omitempty"`
	// TraceID / TraceHop are the repair-wave trace context this message
	// carries (wire.HdrTraceID / wire.HdrTraceHop): the wave minted at
	// the cascade's origin and the hop depth this message's delivery
	// represents (origin repair = hop 0, the messages it emits = hop 1).
	// Persisted with the queue so a wave's shape survives crash-recovery.
	// Observability-only: never consulted for repair semantics or dedup.
	TraceID  string `json:"trace_id,omitempty"`
	TraceHop int    `json:"trace_hop,omitempty"`
	// token is the response-repair token minted for a replace_response
	// (reused across delivery attempts).
	token string
	// inflight marks a message claimed by a delivery pass; guarded by q.mu.
	inflight bool
	// queued marks a live queue entry (cleared on delivery and Drop), so
	// reconciliation checks membership in O(1); guarded by q.mu.
	queued bool
	// key, peer and pos are the entry's index coordinates, guarded by q.mu:
	// its collapse key and destination, recomputed whenever Msg changes,
	// and its position in queue order, fixed when it enters the queue.
	key  qkey
	peer string
	pos  uint64
}

// Stats counts controller activity.
type Stats struct {
	Requests      int64
	RepairsRun    int64
	MsgsQueued    int64
	MsgsDelivered int64
	MsgsFailed    int64
	// DupDeliveries counts incoming repair deliveries re-acknowledged
	// without re-applying (the dedup inbox recognized the delivery).
	DupDeliveries int64
	// StaleDeliveries counts incoming deliveries acknowledged and
	// discarded because they carried a superseded content generation.
	StaleDeliveries int64
	// InboxCommits counts exactly-once inbox outcomes committed for
	// applied incoming deliveries. Unlike MsgsDelivered/MsgsFailed it
	// counts work on the receive side, so a harness quiescing on progress
	// sees a fault class that applies repairs without producing local
	// delivery outcomes (the carried ROADMAP quiesce-widening debt).
	InboxCommits int64
	// RepairsDenied counts incoming repairs refused because the
	// application's Authorize denied them (§4); the sender learns of each
	// as an "unauthorized" notification.
	RepairsDenied int64
	// QueueVisits counts outgoing-queue entries touched by the queue's
	// scans and index lookups: every entry a claim pass or a compaction
	// walks, and every entry an index lookup examines. Per queued message
	// it stays O(1) amortized whatever the queue's size.
	QueueVisits int64
}

type tokenEntry struct {
	audience string // service allowed to fetch the payload
	payload  []byte
}

// Controller is the Aire runtime for one service.
type Controller struct {
	Svc     *web.Service
	AppImpl App
	Net     Caller
	Cfg     Config
	Engine  *warp.Engine

	// q is the outgoing queue with its per-destination records (queue.go).
	q *outQueue

	// sd is the resolved concurrency substrate (Cfg.Sched, or production
	// goroutines); immutable after NewController.
	sd sched.Scheduler

	// topo is the shard topology (Cfg.Topology; nil means every peer has
	// one shard). Immutable after NewController.
	topo *ShardTopology

	// met holds the controller's counters (core/obs.go) — the one copy
	// Stats, RepairCounts and RepairDuration read; immutable after
	// NewController.
	met ctrlMetrics

	pumpMu     sync.Mutex
	pumpCancel context.CancelFunc
	pumpDone   chan struct{}
	pumpPacer  sched.Pacer // active pump's pacer; wakePump's target

	tokmu     sync.Mutex
	tokens    map[string]tokenEntry
	mailboxes map[string][]string // polling client -> undelivered tokens

	// dedup is the peer-side exactly-once inbox for incoming repair
	// deliveries (internal/deliver).
	dedup *deliver.Inbox

	// faults are the installed fault-injection hooks (faults.go); the zero
	// value outside tests and the simulator.
	faults Faults

	nmu           sync.Mutex
	notifications []Notification

	// walst mirrors committed mutations into a write-ahead log (wal.go).
	walst walState
}

// NewController builds the Aire runtime for app, delivering over net.
func NewController(app App, net Caller, cfg Config) *Controller {
	svc := web.NewService(app.Name())
	app.Register(svc)
	c := &Controller{
		Svc:       svc,
		AppImpl:   app,
		Net:       net,
		Cfg:       cfg,
		Engine:    &warp.Engine{Svc: svc},
		tokens:    make(map[string]tokenEntry),
		mailboxes: make(map[string][]string),
		dedup:     deliver.NewInbox(),
		sd:        cfg.Sched,
		topo:      cfg.Topology,
	}
	if c.sd == nil {
		c.sd = sched.Goroutines()
	}
	c.met = newCtrlMetrics(cfg.Obs, app.Name())
	c.q = newOutQueue(c.peerDest, c.met.queueVisits, c.met.queueDepth)
	return c
}

// Obs returns the controller's observability registry (nil when disabled).
// Storage-layer helpers (internal/persist) use it to wire WAL and
// checkpoint latency into the same registry.
func (c *Controller) Obs() *obs.Registry { return c.Cfg.Obs }

// traceCtx is the repair-wave trace context an apply runs under: the wave
// ID minted at the cascade's origin and the hop depth this apply
// represents (origin = hop 0). The zero value means "no incoming context";
// originTrace then mints a fresh wave. Trace context is protocol
// state, not an obs feature: it is parsed, minted, stamped, and persisted
// unconditionally, so instrumented and uninstrumented runs consume
// identical ID sequences and take byte-identical schedules.
type traceCtx struct {
	wave string
	hop  int
}

// traceFromCarrier reads the wave context a repair-plane carrier rode in
// with (stamped by the sender's stampDelivery).
func traceFromCarrier(req wire.Request) traceCtx {
	tc := traceCtx{wave: req.Header[wire.HdrTraceID]}
	if tc.wave != "" {
		tc.hop, _ = strconv.Atoi(req.Header[wire.HdrTraceHop])
	}
	return tc
}

// HandleWire implements transport.Handler: repair API paths are handled by
// the controller itself; everything else is normal application traffic.
// Repair-plane carriers — a frame, or a lone /aire/repair or /aire/notify
// carrier as the n = 1 frame — take the one receive path (receive).
func (c *Controller) HandleWire(from string, req wire.Request) wire.Response {
	switch req.Path {
	case wire.FramePath, "/aire/repair", "/aire/notify":
		return c.receive(from, req)
	case "/aire/fetch_repair":
		return c.handleFetchRepair(from, req)
	case "/aire/poll":
		return c.handlePoll(from, req)
	}
	return c.handleNormal(from, req)
}

var _ transport.Handler = (*Controller)(nil)

// handleNormal executes one live request: assign identifiers, run the
// handler with full interception, commit the record and effects. The
// request's store writes and log append form one commit: they land in the
// WAL as a single entry, applied all-or-nothing on recovery, and its fsync
// settles before the response reaches the client.
func (c *Controller) handleNormal(from string, req wire.Request) (resp wire.Response) {
	c.commit("exec", func() {
		c.met.requests.Inc()
		rec := &repairlog.Record{
			ID:           c.Svc.IDs.Request(),
			TS:           c.Svc.Clock.Next(),
			From:         from,
			ClientRespID: req.Header[wire.HdrResponseID],
			NotifierURL:  req.Header[wire.HdrNotifierURL],
			Req:          req,
		}
		exec := &web.Exec{Svc: c.Svc, Rec: rec, Mode: web.Normal, Outbound: c.outboundNormal}
		resp = exec.Run()
		if resp.Header == nil {
			resp.Header = map[string]string{}
		}
		resp.Header[wire.HdrRequestID] = rec.ID
		rec.Resp = resp
		if err := c.Svc.Log.Append(rec); err != nil {
			resp = wire.NewResponse(500, "aire: "+err.Error())
			return
		}
		for _, ef := range rec.Effects {
			c.Svc.PerformEffect(ef)
		}
	})
	return resp
}

// outboundNormal sends a live outgoing call with Aire headers attached
// (§3.1) and records the identifiers both sides assigned.
func (c *Controller) outboundNormal(seq int, target string, req wire.Request) (wire.Response, repairlog.Call) {
	respID := c.Svc.IDs.Response()
	out := req.WithHeader(
		wire.HdrResponseID, respID,
		wire.HdrNotifierURL, transport.NotifierURL(c.Svc.Name),
	)
	call := repairlog.Call{Target: target, RespID: respID, Req: req.Clone()}
	c.beginLiveCall(target)
	resp, err := c.Net.Call(c.Svc.Name, target, out)
	c.endLiveCall(target)
	if err != nil {
		resp = wire.NewResponse(wire.StatusTimeout, "aire: peer unavailable: "+err.Error())
		call.Failed = true
	} else {
		call.RemoteReqID = resp.Header[wire.HdrRequestID]
	}
	call.Resp = resp
	return resp.Clone(), call
}

type respRepairPayload struct {
	RespID      string `json:"resp_id"`
	RemoteReqID string `json:"remote_req_id"`
	Resp        []byte `json:"resp"`
}

// handleFetchRepair serves a queued replace_response to the client that was
// notified (§3.1's second step). Tokens with an empty audience were parked
// for a polling client and act as bearer capabilities.
func (c *Controller) handleFetchRepair(from string, req wire.Request) wire.Response {
	token := req.Form["token"]
	c.tokmu.Lock()
	entry, ok := c.tokens[token]
	if ok && entry.audience == from || ok && entry.audience == "" {
		delete(c.tokens, token)
	}
	c.tokmu.Unlock()
	if !ok {
		return wire.NewResponse(404, "aire: unknown repair token")
	}
	if entry.audience != "" && entry.audience != from {
		return wire.NewResponse(403, "aire: token not addressed to "+from)
	}
	return wire.Response{Status: 200, Header: map[string]string{}, Body: entry.payload}
}

// handlePoll returns (and clears) the response-repair tokens parked for a
// browser-style client that supplied a poll:// notifier URL. The client
// fetches each token's payload via /aire/fetch_repair.
func (c *Controller) handlePoll(from string, req wire.Request) wire.Response {
	clientID := req.Form["client_id"]
	if clientID == "" {
		return wire.NewResponse(400, "aire: poll requires client_id")
	}
	c.tokmu.Lock()
	tokens := c.mailboxes[clientID]
	delete(c.mailboxes, clientID)
	c.tokmu.Unlock()
	body, err := json.Marshal(tokens)
	if err != nil {
		return wire.NewResponse(500, "aire: "+err.Error())
	}
	return wire.Response{Status: 200, Header: map[string]string{}, Body: body}
}

// ApplyLocal lets a local administrator (or application code) initiate
// repair directly — e.g. cancelling the attack request that started an
// intrusion (§2: "asks Aire to cancel the attacker's request") — and queues
// the resulting repair messages. The repair's store/log mutations and its
// queue effects commit as ONE WAL entry, so a crash-recovered service never
// holds the repaired state without the downstream messages it produced.
func (c *Controller) ApplyLocal(actions ...warp.Action) (*warp.Result, error) {
	tc := c.originTrace(traceCtx{})
	var res *warp.Result
	var err error
	c.commit("repair", func() { res, err = c.repairLocked(actions, tc, nil) })
	if err != nil {
		return nil, err
	}
	c.finishRepair(res, tc)
	return res, nil
}

// originTrace returns tc, or, when it carries no incoming wave context, a
// fresh wave: the repair originates a cascade. The wave is minted
// unconditionally (obs-on and obs-off runs must consume the same ID
// sequence) from the persisted counter, so it stays unique across
// crash-restart like every other identifier.
func (c *Controller) originTrace(tc traceCtx) traceCtx {
	if tc.wave == "" {
		tc = traceCtx{wave: c.Svc.IDs.Wave(), hop: 0}
	}
	return tc
}

// repairLocked runs actions as ONE local repair and queues the downstream
// messages it produces, all into the caller's open WAL batch, so replay is
// all-or-nothing: either the repair fully happened, messages queued exactly
// once, or none of it did. keep, when non-nil, is consulted for every
// action and drops the ones it rejects from the run (a frame's carrier that
// Phase 0 would refuse is refused alone instead of refusing the whole
// frame). A failed index check leaves every action unrun, exactly as if the
// repair never started. Caller holds Svc.Mu with a batch open.
func (c *Controller) repairLocked(actions []warp.Action, tc traceCtx, keep func(int) bool) (*warp.Result, error) {
	if err := c.checkIndexesLocked(); err != nil {
		return nil, err
	}
	if keep != nil {
		run := actions[:0:0]
		for i, a := range actions {
			if keep(i) {
				run = append(run, a)
			}
		}
		actions = run
	}
	res, err := c.Engine.Repair(actions)
	if err != nil {
		return nil, err
	}
	c.enqueue(res.Msgs, tc)
	return res, nil
}

// checkIndexesLocked is the repair-wave-start coherence guard: when
// Faults.StrictIndexes is set it cross-checks the store's and the repair
// log's secondary indexes against their primary state and refuses to start
// the wave on any divergence. The indexes drive which records a repair
// visits (the inverted-dependency walk) and which call a replace_response
// lands on (respIdx); running a wave over a drifted index repairs the wrong
// slice silently, so a loud pre-wave failure is strictly better. Pure
// reads — no yields, no IDs, no rng, no WAL traffic — so runs with the
// guard on and off execute identical schedules. Caller holds Svc.Mu.
func (c *Controller) checkIndexesLocked() error {
	if !c.faults.StrictIndexes {
		return nil
	}
	if err := c.Svc.Store.VerifyIndexes(); err != nil {
		return fmt.Errorf("aire: %s: store index incoherent at repair-wave start: %w", c.Svc.Name, err)
	}
	if err := c.Svc.Log.VerifyIndexes(); err != nil {
		return fmt.Errorf("aire: %s: repair-log index incoherent at repair-wave start: %w", c.Svc.Name, err)
	}
	return nil
}

// finishRepair does a completed local repair's unlocked bookkeeping:
// counters, spans and notifications.
func (c *Controller) finishRepair(res *warp.Result, tc traceCtx) {
	c.met.repairsRun.Inc()
	c.met.repairedReqs.Add(int64(res.RepairedRequests))
	c.met.repairedOps.Add(int64(res.RepairedModelOps))
	c.met.lastTotalReqs.Set(int64(res.TotalRequests))
	c.met.lastTotalOps.Set(int64(res.TotalModelOps))
	c.met.repairNS.ObserveNS(int64(res.Duration))
	if c.met.reg != nil {
		// One span per warp phase, laid out back-to-back ending now; the
		// phase durations come from the engine's own wall clock, the span
		// endpoints from the controller clock (virtual under -sched).
		end := c.now().UnixNano()
		for i := len(res.PhaseDurations) - 1; i >= 0; i-- {
			start := end - int64(res.PhaseDurations[i])
			c.met.ring.Record(obs.Span{
				Wave: tc.wave, Hop: tc.hop, Service: c.Svc.Name,
				Kind: obs.SpanRepair, Subject: warp.RepairPhases[i],
				StartNS: start, EndNS: end,
			})
			end = start
		}
	}
	for _, n := range res.Notices {
		c.notify(Notification{Kind: string(n.Kind), Detail: n.Detail, RepairType: "local"})
	}
}

// notify records a notification and forwards it to the application if it
// implements Notifier (Table 2).
func (c *Controller) notify(n Notification) {
	c.nmu.Lock()
	c.notifications = append(c.notifications, n)
	c.nmu.Unlock()
	if an, ok := c.AppImpl.(Notifier); ok {
		an.Notify(n)
	}
}

// Notifications returns all recorded notifications.
func (c *Controller) Notifications() []Notification {
	c.nmu.Lock()
	defer c.nmu.Unlock()
	return append([]Notification(nil), c.notifications...)
}

// Stats returns a snapshot of the controller's counters: the same handles
// /aire/debug/metrics exports as core.<svc>.* when a registry is attached.
func (c *Controller) Stats() Stats {
	m := &c.met
	return Stats{
		Requests:        m.requests.Value(),
		RepairsRun:      m.repairsRun.Value(),
		MsgsQueued:      m.msgsQueued.Value(),
		MsgsDelivered:   m.msgsDelivered.Value(),
		MsgsFailed:      m.msgsFailed.Value(),
		DupDeliveries:   m.inboxDup.Value(),
		StaleDeliveries: m.inboxStale.Value(),
		InboxCommits:    m.inboxCommits.Value(),
		RepairsDenied:   m.repairsDenied.Value(),
		QueueVisits:     m.queueVisits.Value(),
	}
}

// RepairCounts reports cumulative repair work (the first two rows of
// Table 5): requests and model operations repaired across all local repairs,
// against the totals observed at the most recent repair.
func (c *Controller) RepairCounts() (repairedReqs, totalReqs, repairedOps, totalOps int) {
	m := &c.met
	return int(m.repairedReqs.Value()), int(m.lastTotalReqs.Value()),
		int(m.repairedOps.Value()), int(m.lastTotalOps.Value())
}

// RepairDuration reports the cumulative wall time spent in local repair
// (Table 5's "Local repair time"): the sum of the repair_ns histogram.
func (c *Controller) RepairDuration() time.Duration {
	return time.Duration(c.met.repairNS.SumNS())
}

// AuditGraph builds the cross-request dependency graph of this service's
// repair log — the tooling an administrator uses to find what an intrusion
// touched before invoking repair (§2).
func (c *Controller) AuditGraph() *audit.Graph {
	c.Svc.Mu.Lock()
	defer c.Svc.Mu.Unlock()
	return audit.Build(c.Svc.Log)
}

// BlastRadius lists every local request and remote call transitively
// influenced by reqID, per the audit dependency graph.
func (c *Controller) BlastRadius(reqID string) []string {
	return c.AuditGraph().Descendants(reqID)
}

// GC garbage-collects repair logs and database versions older than beforeTS
// (§9). Repairs naming garbage-collected requests are afterwards refused
// with status 410 and the requesting peer notifies its administrator. The
// dedup inbox is collected with the same horizon: entries for deliveries
// applied before it are dropped, and later arrivals at or below the highest
// dropped sequence are refused as forgotten (410) unless the sender's acked
// prefix already vouches for them.
func (c *Controller) GC(beforeTS int64) {
	c.commit("gc", func() {
		c.Svc.Log.GC(beforeTS)
		c.Svc.Store.GC(beforeTS)
		c.dedup.GC(beforeTS)
		if c.walAttached() {
			c.walEmit(&walOp{Kind: "in-gc", InGC: inGCOp{BeforeTS: beforeTS}})
		}
	})
}
