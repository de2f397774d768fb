package core

import (
	"strconv"

	"aire/internal/deliver"
	"aire/internal/obs"
	"aire/internal/warp"
	"aire/internal/wire"
)

// This file is the receive side of the exactly-once repair session layer
// (internal/deliver): every incoming repair-plane carrier that names its
// delivery (wire.HdrDeliveryID et al.) runs through the controller's dedup
// inbox before the repair handlers touch the log. Duplicates are
// re-acknowledged without re-applying — a re-delivered create returns the
// originally minted request ID instead of minting a second synthetic
// request — and superseded generations are acknowledged and discarded so a
// delayed copy of old repair content cannot regress the service.

// deliveryGate carries one admitted delivery's identity through a repair
// handler. After the repair is applied, exactly one of commit or rollback
// must run; the zero value (inactive) makes both no-ops, so ungated
// legacy deliveries flow through the same code path.
type deliveryGate struct {
	c      *Controller
	active bool
	origin string
	id     string
	gen    uint64
	// once records the delivery's once-only classification (creates), so a
	// WAL replay of the gate's outcome re-reserves it identically.
	once bool
}

// gateDelivery classifies an arriving repair-plane carrier against the
// dedup inbox. A non-nil response means the delivery was already handled
// (duplicate or stale) and that acknowledgment should be returned verbatim;
// otherwise the returned gate must be committed or rolled back once the
// repair handler finishes. Carriers without delivery identity — legacy
// senders, locally issued calls — are never gated.
func (c *Controller) gateDelivery(from string, req wire.Request) (deliveryGate, *wire.Response) {
	if c.faults.DisableDedup {
		return deliveryGate{}, nil
	}
	id := req.Header[wire.HdrDeliveryID]
	if id == "" {
		return deliveryGate{}, nil
	}
	// Prefer the transport-authenticated caller as the dedup scope; the
	// Aire-Origin header covers transports that do not authenticate the
	// caller. Scoping by authenticated identity keeps one peer from
	// poisoning another peer's dedup memory with spoofed delivery IDs.
	origin := from
	if origin == "" {
		origin = req.Header[wire.HdrOrigin]
	}
	if origin == "" {
		return deliveryGate{}, nil
	}
	var gen uint64
	if s := req.Header[wire.HdrGeneration]; s != "" {
		gen, _ = strconv.ParseUint(s, 10, 64)
	}
	// Creates are once-only per delivery: the synthetic request is minted
	// exactly once, and no generation bump (e.g. Retry with refreshed
	// credentials) can supersede a mint that already happened.
	once := warp.OutKind(req.Header[wire.HdrRepair]) == warp.OutCreate
	switch d, outcome := c.dedup.Begin(origin, id, gen, once); d {
	case deliver.Duplicate:
		c.smu.Lock()
		c.stats.DupDeliveries++
		c.smu.Unlock()
		c.met.inboxDup.Inc()
		c.spanInboxVerdict(req, id, "duplicate")
		c.emit(EvDupDelivery, id, "duplicate delivery from %s re-acknowledged (gen %d)", origin, gen)
		resp := wire.NewResponse(200, "aire: duplicate delivery acknowledged")
		if outcome != "" {
			resp.Header[wire.HdrRequestID] = outcome
		}
		return deliveryGate{}, &resp
	case deliver.Stale:
		c.smu.Lock()
		c.stats.StaleDeliveries++
		c.smu.Unlock()
		c.met.inboxStale.Inc()
		c.spanInboxVerdict(req, id, "stale")
		c.emit(EvStaleDelivery, id, "superseded generation %d from %s acknowledged and discarded", gen, origin)
		resp := wire.NewResponse(200, "aire: stale generation discarded")
		return deliveryGate{}, &resp
	case deliver.InFlight:
		// Another copy of this delivery is mid-apply. Acknowledging it as
		// a duplicate would let the sender dequeue a repair whose only
		// apply may yet fail; answer retryably (503 → peer-level backoff)
		// so the sender tries again once the outcome is known.
		c.met.inboxBusy.Inc()
		c.spanInboxVerdict(req, id, "in-flight")
		resp := wire.NewResponse(503, "aire: delivery in progress, retry")
		return deliveryGate{}, &resp
	case deliver.Forgotten:
		// The delivery predates the inbox's GC horizon: whether it was
		// ever applied is unknowable, so refuse it the way the repair log
		// refuses its own pre-horizon repairs — the sender drops the
		// message and notifies its administrator.
		c.met.inboxGone.Inc()
		c.spanInboxVerdict(req, id, "forgotten")
		resp := wire.NewResponse(410, "aire: delivery predates the dedup horizon; repair permanently unavailable")
		return deliveryGate{}, &resp
	}
	c.met.inboxApply.Inc()
	c.spanInboxVerdict(req, id, "apply")
	return deliveryGate{c: c, active: true, origin: origin, id: id, gen: gen, once: once}, nil
}

// spanInboxVerdict records one inbox-classification span, correlated to
// the wave the carrier rode in with. No-op with obs disabled.
func (c *Controller) spanInboxVerdict(req wire.Request, id, verdict string) {
	if c.met.reg == nil {
		return
	}
	wave := req.Header[wire.HdrTraceID]
	hop := 0
	if wave != "" {
		hop, _ = strconv.Atoi(req.Header[wire.HdrTraceHop])
	}
	now := c.now().UnixNano()
	c.met.ring.Record(obs.Span{
		Wave: wave, Hop: hop, Service: c.Svc.Name,
		Kind: obs.SpanInbox, Subject: verdict, Peer: id,
		StartNS: now, EndNS: now,
	})
}

// commit records the applied delivery's outcome (for creates, the minted
// request ID a future duplicate is re-acknowledged with). The entry is
// stamped with the service's logical clock so Controller.GC ages it with
// the repair log horizon.
func (g deliveryGate) commit(outcome string) { g.commitEmit(outcome, false) }

// commitEmit is commit with control over WAL placement: join puts the
// in-commit op inside the open commit batch (ProcessIncoming, which holds
// Svc.Mu with a batch open); standalone commits append their own entry.
func (g deliveryGate) commitEmit(outcome string, join bool) {
	if !g.active {
		return
	}
	ts := g.c.Svc.Clock.Now()
	g.c.dedup.Commit(g.origin, g.id, g.gen, outcome, ts)
	// Receive-side progress: the harness's widened quiesce metric counts
	// committed inbox outcomes, so fault classes that apply repairs
	// without producing local delivery outcomes still register progress.
	g.c.smu.Lock()
	g.c.stats.InboxCommits++
	g.c.smu.Unlock()
	g.c.met.inboxCommits.Inc()
	if g.c.walAttached() {
		g.c.walEmit("inbox", mustOp("in-commit", inboxOp{
			Origin: g.origin, ID: g.id, Gen: g.gen, Once: g.once, Outcome: outcome, TS: ts,
		}), join)
	}
}

// rollback releases the reservation of a delivery whose apply failed, so a
// later retry of the same delivery is classified Apply again.
func (g deliveryGate) rollback() { g.rollbackEmit(false) }

func (g deliveryGate) rollbackEmit(join bool) {
	if !g.active {
		return
	}
	g.c.dedup.Rollback(g.origin, g.id, g.gen)
	if g.c.walAttached() {
		g.c.walEmit("inbox", mustOp("in-rollback", inboxOp{
			Origin: g.origin, ID: g.id, Gen: g.gen, Once: g.once,
		}), join)
	}
}

// ImportInbox restores a persisted dedup inbox (AtomicExport.Inbox):
// restoring it alongside the repair log keeps the exactly-once guarantee
// across crash-restart (a redelivery the crashed incarnation already
// applied is still re-acknowledged, not re-applied).
func (c *Controller) ImportInbox(dump []deliver.OriginDump) { c.dedup.Restore(dump) }

// InboxLenDedup reports how many delivery entries the dedup inbox holds
// (the incoming-action queue has InboxLen).
func (c *Controller) InboxLenDedup() int { return c.dedup.Len() }
