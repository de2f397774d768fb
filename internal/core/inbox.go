package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"aire/internal/deliver"
	"aire/internal/obs"
	"aire/internal/orm"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// This file is the receive side of the repair plane, and it has one path. A
// frame (wire.FramePath) carries a sender's claimed batch for this (peer,
// shard) — §3.2's aggregation of incoming repair messages, at the unit the
// sender already batches — and a lone /aire/repair or /aire/notify carrier
// (an external caller's) is the n = 1 frame.
//
// Every carrier that names its delivery (wire.HdrDeliveryID et al.) runs
// through the controller's exactly-once dedup inbox (internal/deliver)
// before the repair handlers touch the log. Duplicates are re-acknowledged
// without re-applying — a re-delivered create returns the originally minted
// request ID instead of minting a second synthetic request — and superseded
// generations are acknowledged and discarded so a delayed copy of old repair
// content cannot regress the service. Everything the inbox admits runs as
// one local repair, and the frame is answered only after that apply.

// inCarrier is one repair-plane carrier on its way through receive.
type inCarrier struct {
	req wire.Request
	// gen is the carrier's content generation (wire.HdrGeneration).
	gen  uint64
	gate deliveryGate
	// action is the local repair the carrier asks for, once admitted.
	action warp.Action
	// resp is the carrier's answer; nil while the carrier is admitted.
	resp *wire.Response
}

func (ic *inCarrier) answer(resp wire.Response) { ic.resp = &resp }

// receive answers one frame, or one lone carrier as the n = 1 frame.
// Frame-level checks run once: the destination shard, the body checksum (a
// corrupted frame is refused before any carrier is gated), and one
// version-vector observation. Each carrier is then classified by the dedup
// inbox and authorized on its own, and every admitted action — notify
// carriers included — runs in ONE local repair whose mutations, queue
// effects, inbox outcomes and vector advance commit in ONE WAL entry. The
// carriers are answered only after that apply.
func (c *Controller) receive(from string, outer wire.Request) wire.Response {
	// A frame stamped for a sibling shard must never be absorbed here: its
	// delivery IDs would commit into the wrong shard's dedup inbox and the
	// real destination would never see the repairs. Fail loudly and
	// retryably so a (buggy) misroute surfaces instead of converging to a
	// wrong world.
	if want := outer.Header[wire.HdrShard]; want != "" && want != c.Svc.Name {
		return wire.NewResponse(500, "aire: carrier addressed to shard "+want+" delivered to "+c.Svc.Name)
	}
	if bad := c.verifyCarrierBody(outer); bad != nil {
		return *bad
	}
	reqs := []wire.Request{outer}
	framed := outer.Path == wire.FramePath
	if framed {
		var err error
		if reqs, err = wire.DecodeFrame(outer.Body); err != nil {
			return wire.NewResponse(400, "aire: "+err.Error())
		}
	}
	cs := make([]inCarrier, len(reqs))
	for i, r := range reqs {
		cs[i] = parseCarrier(r)
	}
	missing, vv, bad := c.observeCarrierVector(from, outer, cs)
	if bad != nil {
		return *bad
	}
	for i := range cs {
		if cs[i].resp == nil {
			c.gateDelivery(from, &cs[i])
		}
	}
	for i := range cs {
		if cs[i].resp == nil {
			c.admit(from, &cs[i])
		}
	}
	c.applyCarriers(cs, vv)

	resp := *cs[0].resp
	if framed {
		resps := make([]wire.Response, len(cs))
		for i := range cs {
			resps[i] = *cs[i].resp
		}
		resp = wire.Response{Status: 200, Header: map[string]string{}, Body: wire.EncodeFrameReply(resps)}
	}
	if missing > 0 {
		// The gap verdict rides the response, whatever its status, so the
		// sender can re-offer the lost delivery without waiting out backoff.
		if resp.Header == nil {
			resp.Header = map[string]string{}
		}
		resp.Header[wire.HdrNackSeq] = strconv.FormatUint(missing, 10)
	}
	return resp
}

// parseCarrier validates what receive reads from a carrier before anything
// is observed: that it is a repair-plane carrier, and its content
// generation. A malformed or out-of-range Aire-Generation is refused: read
// leniently, garbage would become generation 0 (acknowledged as stale and
// discarded under any committed entry) and an overflow MaxUint64 (pinning
// the entry, so every later legitimate generation is stale).
func parseCarrier(req wire.Request) inCarrier {
	ic := inCarrier{req: req}
	if req.Path != "/aire/repair" && req.Path != "/aire/notify" {
		ic.answer(wire.NewResponse(400, "aire: "+req.Path+" is not a repair-plane carrier"))
		return ic
	}
	if s := req.Header[wire.HdrGeneration]; s != "" {
		gen, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			ic.answer(wire.NewResponse(400, fmt.Sprintf("aire: malformed %s %q", wire.HdrGeneration, s)))
			return ic
		}
		ic.gen = gen
	}
	return ic
}

// deliveryGate carries one admitted delivery's identity through the apply.
// Once the frame's repair has run, exactly one of commit or rollback must
// run; the zero value (inactive) makes both no-ops, so ungated carriers
// flow through the same code path.
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

// gateDelivery classifies an arriving carrier against the dedup inbox. A
// delivery already handled (duplicate, stale), mid-apply elsewhere, or
// beyond the GC horizon is answered here; otherwise the carrier's gate
// holds the inbox reservation until the apply commits or rolls it back.
// Carriers without delivery identity — external callers, locally issued
// calls — are never gated.
func (c *Controller) gateDelivery(from string, ic *inCarrier) {
	if c.faults.DisableDedup {
		return
	}
	req := ic.req
	id := req.Header[wire.HdrDeliveryID]
	if id == "" {
		return
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
		return
	}
	gen := ic.gen
	// Creates are once-only per delivery: the synthetic request is minted
	// exactly once, and no generation bump (e.g. Retry with refreshed
	// credentials) can supersede a mint that already happened.
	once := warp.OutKind(req.Header[wire.HdrRepair]) == warp.OutCreate
	switch d, outcome := c.dedup.Begin(origin, id, gen, once); d {
	case deliver.Duplicate:
		c.met.inboxDup.Inc()
		c.spanInboxVerdict(req, id, "duplicate")
		c.emit(EvDupDelivery, id, "duplicate delivery from %s re-acknowledged (gen %d)", origin, gen)
		resp := wire.NewResponse(200, "aire: duplicate delivery acknowledged")
		if outcome != "" {
			resp.Header[wire.HdrRequestID] = outcome
		}
		ic.answer(resp)
		return
	case deliver.Stale:
		c.met.inboxStale.Inc()
		c.spanInboxVerdict(req, id, "stale")
		c.emit(EvStaleDelivery, id, "superseded generation %d from %s acknowledged and discarded", gen, origin)
		ic.answer(wire.NewResponse(200, "aire: stale generation discarded"))
		return
	case deliver.InFlight:
		// Another copy of this delivery is mid-apply. Acknowledging it as
		// a duplicate would let the sender dequeue a repair whose only
		// apply may yet fail; answer retryably (503 → peer-level backoff)
		// so the sender tries again once the outcome is known.
		c.met.inboxBusy.Inc()
		c.spanInboxVerdict(req, id, "in-flight")
		ic.answer(wire.NewResponse(503, "aire: delivery in progress, retry"))
		return
	case deliver.Forgotten:
		// The delivery predates the inbox's GC horizon: whether it was
		// ever applied is unknowable, so refuse it the way the repair log
		// refuses its own pre-horizon repairs — the sender drops the
		// message and notifies its administrator.
		c.met.inboxGone.Inc()
		c.spanInboxVerdict(req, id, "forgotten")
		ic.answer(wire.NewResponse(410, "aire: delivery predates the dedup horizon; repair permanently unavailable"))
		return
	}
	c.met.inboxApply.Inc()
	c.spanInboxVerdict(req, id, "apply")
	ic.gate = deliveryGate{c: c, active: true, origin: origin, id: id, gen: gen, once: once}
}

// spanInboxVerdict records one inbox-classification span, correlated to
// the wave the carrier rode in with. No-op with obs disabled.
func (c *Controller) spanInboxVerdict(req wire.Request, id, verdict string) {
	if c.met.reg == nil {
		return
	}
	tc := traceFromCarrier(req)
	now := c.now().UnixNano()
	c.met.ring.Record(obs.Span{
		Wave: tc.wave, Hop: tc.hop, Service: c.Svc.Name,
		Kind: obs.SpanInbox, Subject: verdict, Peer: id,
		StartNS: now, EndNS: now,
	})
}

// admit authorizes one gated carrier (§4) and records the local repair
// action it asks for. A refusal answers the carrier and releases its inbox
// reservation, so the sender's retry is classified Apply again.
func (c *Controller) admit(from string, ic *inCarrier) {
	if ic.req.Path == "/aire/notify" {
		c.admitNotify(from, ic)
	} else {
		c.admitRepair(from, ic)
	}
	if ic.resp != nil {
		ic.gate.rollback()
	}
}

// admitRepair admits a replace, delete, or create carrier — the repair API
// of Table 1 (replace_response uses the notify/fetch handshake).
func (c *Controller) admitRepair(from string, ic *inCarrier) {
	req := ic.req
	op := warp.OutKind(req.Header[wire.HdrRepair])
	targetID := req.Header[wire.HdrRequestID]
	ac := AuthzRequest{Kind: op, From: from, Carrier: req}

	// Svc.Mu is held from the log lookup through Authorize: local repair
	// mutates log records and rolls the store back under this lock, and
	// repair messages arrive concurrently with it once the peer pumps in
	// the background — the policy must not observe a mid-repair store.
	c.Svc.Mu.Lock()
	ac.Now = orm.Snapshot(c.Svc.Store, c.Svc.Schema, c.Svc.Clock.Now())
	var action warp.Action
	switch op {
	case warp.OutReplace, warp.OutDelete:
		rec, ok := c.Svc.Log.Get(targetID)
		if !ok {
			gc := c.Svc.Log.GCBefore()
			c.Svc.Mu.Unlock()
			if gc > 0 {
				ic.answer(wire.NewResponse(410, "aire: request log garbage-collected; repair permanently unavailable"))
				return
			}
			ic.answer(wire.NewResponse(404, "aire: no such request "+targetID))
			return
		}
		ac.Original = rec.Req.Clone()
		ac.OriginalResp = rec.Resp.Clone()
		ac.OriginalFrom = rec.From
		ac.Snapshot = orm.Snapshot(c.Svc.Store, c.Svc.Schema, rec.TS)
		if op == warp.OutDelete {
			action = warp.Action{Kind: warp.CancelReq, ReqID: targetID}
			break
		}
		newReq, err := wire.DecodeRequest(req.Body)
		if err != nil {
			c.Svc.Mu.Unlock()
			ic.answer(wire.NewResponse(400, "aire: bad replace payload: "+err.Error()))
			return
		}
		ac.Repaired = newReq
		action = warp.Action{
			Kind: warp.ReplaceReq, ReqID: targetID, NewReq: newReq,
			From: from, ClientRespID: req.Header[wire.HdrResponseID], NotifierURL: req.Header[wire.HdrNotifierURL],
		}

	case warp.OutCreate:
		newReq, err := wire.DecodeRequest(req.Body)
		if err != nil {
			c.Svc.Mu.Unlock()
			ic.answer(wire.NewResponse(400, "aire: bad create payload: "+err.Error()))
			return
		}
		ac.Repaired = newReq
		ac.Snapshot = orm.Snapshot(c.Svc.Store, c.Svc.Schema, c.Svc.Clock.Now())
		action = warp.Action{
			Kind: warp.CreateReq, NewReq: newReq,
			BeforeID: req.Form["before_id"], AfterID: req.Form["after_id"],
			From: from, ClientRespID: req.Header[wire.HdrResponseID], NotifierURL: req.Header[wire.HdrNotifierURL],
		}

	default:
		c.Svc.Mu.Unlock()
		ic.answer(wire.NewResponse(400, "aire: unknown repair operation "+string(op)))
		return
	}

	// Access control is the application's decision (§4).
	authorized := c.AppImpl.Authorize(ac)
	c.Svc.Mu.Unlock()
	if !authorized {
		c.emit(EvRepairDenied, targetID, "%s from %q denied by policy", op, from)
		ic.answer(wire.NewResponse(403, "aire: repair not authorized"))
		return
	}
	ic.action = action
}

// admitNotify admits a response-repair token (§3.1): the client fetches the
// actual replace_response from the server named in the token delivery,
// authenticating the server in the process (on the bus, by name
// resolution; over TLS, by certificate).
func (c *Controller) admitNotify(from string, ic *inCarrier) {
	req := ic.req
	token := req.Form["token"]
	server := req.Form["server"]
	if token == "" || server == "" {
		ic.answer(wire.NewResponse(400, "aire: notify requires token and server"))
		return
	}
	fetch := wire.NewRequest("POST", "/aire/fetch_repair").WithForm("token", token)
	fresp, err := c.Net.Call(c.Svc.Name, server, fetch)
	if err != nil {
		ic.answer(wire.NewResponse(503, "aire: cannot fetch repair from "+server))
		return
	}
	if !fresp.OK() {
		ic.answer(wire.NewResponse(502, "aire: fetch_repair failed: "+string(fresp.Body)))
		return
	}
	var payload respRepairPayload
	if err := json.Unmarshal(fresp.Body, &payload); err != nil {
		ic.answer(wire.NewResponse(502, "aire: bad fetch_repair payload"))
		return
	}
	newResp, err := wire.DecodeResponse(payload.Resp)
	if err != nil {
		ic.answer(wire.NewResponse(400, "aire: bad replace_response body"))
		return
	}
	// Svc.Mu is held from the log lookup through Authorize: see
	// admitRepair. The lookup itself is an O(1) probe of the log's
	// response-ID index.
	c.Svc.Mu.Lock()
	rec, i, ok := c.Svc.Log.FindByCallRespID(payload.RespID)
	if !ok {
		c.Svc.Mu.Unlock()
		ic.answer(wire.NewResponse(404, "aire: unknown response "+payload.RespID))
		return
	}
	// The server may only repair responses it itself produced. Call
	// records name the peer by its unqualified service name, while a
	// sharded producer notifies under its shard-qualified name — any
	// shard of the recorded target is the same producing service.
	if rec.Calls[i].Target != server && rec.Calls[i].Target != wire.ShardBaseName(server) {
		c.Svc.Mu.Unlock()
		ic.answer(wire.NewResponse(403, "aire: response "+payload.RespID+" was not produced by "+server))
		return
	}
	ac := AuthzRequest{
		Kind:         warp.OutReplaceResponse,
		From:         server,
		Original:     rec.Calls[i].Req.Clone(),
		OriginalResp: rec.Calls[i].Resp.Clone(),
		RepairedResp: newResp,
		Carrier:      req,
		Snapshot:     orm.Snapshot(c.Svc.Store, c.Svc.Schema, rec.TS),
		Now:          orm.Snapshot(c.Svc.Store, c.Svc.Schema, c.Svc.Clock.Now()),
	}
	authorized := c.AppImpl.Authorize(ac)
	c.Svc.Mu.Unlock()
	if !authorized {
		ic.answer(wire.NewResponse(403, "aire: replace_response not authorized"))
		return
	}
	ic.action = warp.Action{
		Kind: warp.ReplaceCallResp, RespID: payload.RespID,
		NewResp: newResp, RemoteReqID: payload.RemoteReqID,
	}
}

// applyCarriers runs every admitted carrier's action as ONE local repair
// and answers each carrier. The repair's mutations, its queue effects,
// every admitted carrier's inbox outcome and the frame's vector advance
// (pre) commit as ONE WAL entry (commitRepair); with nothing admitted, pre
// is logged alone. Phase 0 runs per carrier inside that commit, so a
// carrier it refuses is answered alone and the rest of the frame applies.
func (c *Controller) applyCarriers(cs []inCarrier, pre []wal.Op) {
	var run []*inCarrier
	var actions []warp.Action
	var tc traceCtx
	for i := range cs {
		ic := &cs[i]
		if ic.resp != nil {
			continue
		}
		run = append(run, ic)
		actions = append(actions, ic.action)
		// The run applies under the deepest trace context among its
		// carriers (what it queues belongs to the deepest wave that fed
		// it); a frame with no traced carrier originates a wave.
		if t := traceFromCarrier(ic.req); t.wave != "" && (tc.wave == "" || t.hop > tc.hop) {
			tc = t
		}
	}
	if len(run) == 0 {
		c.walAppend("inbox", pre)
		return
	}
	keep := func(k int) bool {
		err := c.Engine.Validate(actions[k])
		if err != nil {
			c.refuse(run[k], err)
		}
		return err == nil
	}
	commit := func(res *warp.Result, join bool) {
		created := res.CreatedIDs
		for _, ic := range run {
			if ic.resp != nil {
				continue // refused by Phase 0
			}
			outcome := ""
			if ic.action.Kind == warp.CreateReq {
				outcome, created = created[0], created[1:]
			}
			ic.gate.commit(outcome, join)
			ic.answerApplied(res, outcome)
		}
	}
	if _, err := c.commitRepair(actions, tc, pre, keep, commit); err != nil {
		for _, ic := range run {
			if ic.resp == nil {
				c.refuse(ic, err)
			}
		}
	}
}

// answerApplied acknowledges an applied carrier. A repair carrier's answer
// names the local request the repair settled on — the freshly minted one
// for a create, the existing one for replace/delete — which the sender
// records for future repairs.
func (ic *inCarrier) answerApplied(res *warp.Result, created string) {
	if ic.action.Kind == warp.ReplaceCallResp {
		ic.answer(wire.NewResponse(200, "aire: response repaired"))
		return
	}
	resp := wire.NewResponse(200, fmt.Sprintf("aire: repaired %d/%d requests", res.RepairedRequests, res.TotalRequests))
	resp.Header[wire.HdrRequestID] = ic.action.ReqID
	if created != "" {
		resp.Header[wire.HdrRequestID] = created
	}
	ic.answer(resp)
}

// refuse answers a carrier whose apply failed — 410 when its target was
// garbage-collected, 400 otherwise — and releases its inbox reservation.
func (c *Controller) refuse(ic *inCarrier, err error) {
	ic.gate.rollback()
	status := 400
	if errors.Is(err, warp.ErrGarbageCollected) {
		status = 410
	}
	ic.answer(wire.NewResponse(status, "aire: "+err.Error()))
}

// commit records the applied delivery's outcome (for creates, the minted
// request ID a future duplicate is re-acknowledged with), logged in the
// caller's open WAL batch when join is set and as its own entry otherwise.
// The entry is stamped with the service's logical clock so Controller.GC
// ages it with the repair log horizon.
func (g deliveryGate) commit(outcome string, join bool) {
	if !g.active {
		return
	}
	ts := g.c.Svc.Clock.Now()
	g.c.dedup.Commit(g.origin, g.id, g.gen, outcome, ts)
	// Receive-side progress: the harness's quiesce metric counts committed
	// inbox outcomes, so a fault class whose deliveries apply without a
	// delivery outcome reaching the sender (a lost response) still
	// registers progress.
	g.c.met.inboxCommits.Inc()
	if g.c.walAttached() {
		g.c.walEmit("inbox", mustOp("in-commit", inboxOp{
			Origin: g.origin, ID: g.id, Gen: g.gen, Once: g.once, Outcome: outcome, TS: ts,
		}), join)
	}
}

// rollback releases the reservation of a delivery whose apply failed or was
// refused, so a later retry of the same delivery is classified Apply again.
// Reservations are never logged, so neither is their release.
func (g deliveryGate) rollback() {
	if g.active {
		g.c.dedup.Rollback(g.origin, g.id, g.gen)
	}
}

// ImportInbox restores a persisted dedup inbox (AtomicExport.Inbox):
// restoring it alongside the repair log keeps the exactly-once guarantee
// across crash-restart (a redelivery the crashed incarnation already
// applied is still re-acknowledged, not re-applied).
func (c *Controller) ImportInbox(dump []deliver.OriginDump) { c.dedup.Restore(dump) }
