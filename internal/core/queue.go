package core

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"

	"aire/internal/deliver"
	"aire/internal/obs"
	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/wire"
)

// enqueue adds repair messages to the outgoing queue, collapsing messages
// that target the same request or response (§3.2: "If multiple repair
// messages refer to the same request or the same response, Aire can
// collapse them, by keeping only the most recent repair message"). tc is
// the trace context of the repair that produced the messages: each queued
// message carries the wave at one hop deeper than the apply it came from.
// Caller holds Svc.Mu with a WAL batch open: the q-set ops join the
// caller's commit (a repair's mutations, a frame's inbox outcomes).
func (c *Controller) enqueue(msgs []warp.OutMsg, tc traceCtx) {
	if len(msgs) == 0 {
		return
	}
	// A message's delivery is one hop deeper than the apply that emitted it.
	hop := tc.hop
	if tc.wave != "" {
		hop++
	}
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for _, m := range msgs {
		c.met.msgsQueued.Inc()
		if p := c.collapseTargetLocked(&m); p != nil {
			c.setMsgLocked(p, m) // keep the newest content, the oldest position
			p.Held = false
			p.Attempts = 0
			p.Gen++ // supersede any delivery of the old content in flight
			// Trace follows content: the surviving delivery carries
			// the superseding repair's wave.
			p.TraceID = tc.wave
			p.TraceHop = hop
			c.walEmitQSetLocked(p)
			c.spanEnqueueLocked(p)
			continue
		}
		p := &PendingMsg{
			DeliveryID: c.Svc.IDs.Delivery(),
			Msg:        m,
			TraceID:    tc.wave,
			TraceHop:   hop,
		}
		c.appendQueuedLocked(p)
		c.walEmitQSetLocked(p)
		c.spanEnqueueLocked(p)
	}
	c.met.queueDepth.Set(int64(c.qlive))
	c.wakePump()
}

// spanEnqueueLocked records the enqueue span of one queued (or
// re-collapsed) message. Caller holds qmu; no-op with obs disabled.
func (c *Controller) spanEnqueueLocked(p *PendingMsg) {
	if c.met.reg == nil || p.TraceID == "" {
		return
	}
	now := c.now().UnixNano()
	c.met.ring.Record(obs.Span{
		Wave: p.TraceID, Hop: p.TraceHop, Service: c.Svc.Name,
		Kind: obs.SpanEnqueue, Subject: p.DeliveryID, Peer: p.peer,
		StartNS: now, EndNS: now,
	})
}

// qkey is a collapse key: the request or response a repair message is
// about. Messages with equal keys supersede one another; the zero key
// (kind 0) never collapses.
type qkey struct {
	kind uint8  // 0: never collapses; 1: a request; 2: a response
	peer string // the request's target, or the response's notifier URL
	id   string // the remote request ID, or the response's local record
}

// collapseKey identifies the request/response a repair message is about.
// Creates are never collapsed (each denotes a distinct new request).
// Response repairs collapse by the local record whose response changed,
// not by client response ID: re-repairing a request replaces its outgoing
// calls and mints fresh response IDs, so a still-queued replace_response
// naming the old ID is superseded by the new one — it could never be
// applied (the client's call record no longer carries the old ID) and
// would otherwise retry into a parked 404.
func collapseKey(m *warp.OutMsg) qkey {
	switch m.Kind {
	case warp.OutReplace, warp.OutDelete:
		return qkey{kind: 1, peer: m.Target, id: m.RemoteReqID}
	case warp.OutReplaceResponse:
		id := m.LocalReqID
		if id == "" {
			id = m.RespID
		}
		return qkey{kind: 2, peer: m.NotifierURL, id: id}
	}
	return qkey{}
}

// The outgoing queue is a slice in queue (FIFO) order plus three indexes
// over its live entries: by delivery ID (qbyID), by collapse key (qbyKey,
// each key's entries oldest first), and live counts per destination
// (qpeer). A message leaving the queue only clears its membership and
// unlinks it from the indexes; the slice drops dead entries in one pass
// once they outnumber live ones. So a collapse lookup, a find by delivery
// ID, a replayed q-set or q-del, a removal and a "does this peer still
// have messages" test each cost O(1) amortized, and a wave of n messages
// costs O(n) to queue and to replay. Only a claim pass scans the slice.
// VerifyQueue checks the indexes against a scan.

// queueLookupHook, when set (by tests only), observes every index lookup:
// a collapse lookup for m, or a find by delivery ID, and the entry the
// index picked. Called under qmu.
var queueLookupHook func(c *Controller, m *warp.OutMsg, deliveryID string, picked *PendingMsg)

// collapseTargetLocked returns the live entry a new message m collapses
// onto — the oldest one with m's key — or nil. Caller holds qmu.
func (c *Controller) collapseTargetLocked(m *warp.OutMsg) *PendingMsg {
	var p *PendingMsg
	if k := collapseKey(m); k.kind != 0 {
		if l := c.qbyKey[k]; len(l) > 0 {
			p = l[0]
			c.met.queueVisits.Inc()
		}
	}
	if queueLookupHook != nil {
		queueLookupHook(c, m, "", p)
	}
	return p
}

// appendQueuedLocked adds p at the tail of the queue as a live entry,
// indexes it, and issues its delivery in its destination's sender vector
// (idempotent, so a replayed re-insert is safe). Caller holds qmu.
func (c *Controller) appendQueuedLocked(p *PendingMsg) {
	p.queued = true
	p.pos = c.qnext
	c.qnext++
	c.queue = append(c.queue, p)
	c.qlive++
	c.linkLocked(p)
	c.vvIssueLocked(p.peer, p.DeliveryID)
}

// setMsgLocked replaces a live entry's content, re-deriving its index
// coordinates. Caller holds qmu.
func (c *Controller) setMsgLocked(p *PendingMsg, m warp.OutMsg) {
	peer := p.peer
	c.unlinkLocked(p)
	p.Msg = m
	c.linkLocked(p)
	c.vvMoveLocked(peer, p)
}

// linkLocked derives a live entry's collapse key and destination from its
// content and adds it to the indexes. Caller holds qmu.
func (c *Controller) linkLocked(p *PendingMsg) {
	p.key, p.peer = collapseKey(&p.Msg), c.peerDest(p.Msg)
	c.qbyID[p.DeliveryID] = p
	c.qpeer[p.peer]++
	if p.key.kind == 0 {
		return
	}
	// Keep each key's entries in queue order. An entry almost always joins
	// at the tail; only a restored entry whose content changed key can
	// land before a newer one.
	l := append(c.qbyKey[p.key], p)
	for i := len(l) - 1; i > 0 && l[i-1].pos > p.pos; i-- {
		l[i-1], l[i] = l[i], l[i-1]
	}
	c.qbyKey[p.key] = l
}

// unlinkLocked removes a live entry from the indexes. Caller holds qmu.
func (c *Controller) unlinkLocked(p *PendingMsg) {
	delete(c.qbyID, p.DeliveryID)
	if c.qpeer[p.peer]--; c.qpeer[p.peer] == 0 {
		delete(c.qpeer, p.peer)
	}
	if p.key.kind == 0 {
		return
	}
	l := c.qbyKey[p.key]
	for i, q := range l {
		if q == p {
			c.met.queueVisits.Add(int64(i + 1))
			l = append(l[:i], l[i+1:]...)
			break
		}
	}
	if len(l) == 0 {
		delete(c.qbyKey, p.key)
	} else {
		c.qbyKey[p.key] = l
	}
}

// VerifyQueue cross-checks the outgoing queue's indexes against a scan of
// the queue: the live count, the delivery-ID and collapse-key indexes
// (each key's entries oldest first), the per-peer live counts, every live
// entry's recorded key and destination, and the sender vectors' sets of
// outstanding deliveries. A pure read under qmu; the simulator runs it on
// every controller after every run.
func (c *Controller) VerifyQueue() error {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	live := 0
	peers := map[string]int{}
	out := map[string]map[uint64]bool{}
	var last *PendingMsg
	for _, p := range c.queue {
		if last != nil && p.pos <= last.pos {
			return fmt.Errorf("core: %s: queue positions out of order at %s", c.Svc.Name, p.DeliveryID)
		}
		last = p
		if !p.queued {
			continue
		}
		live++
		if c.qbyID[p.DeliveryID] != p {
			return fmt.Errorf("core: %s: live entry %s missing from the delivery-ID index", c.Svc.Name, p.DeliveryID)
		}
		if k := collapseKey(&p.Msg); p.key != k {
			return fmt.Errorf("core: %s: entry %s records collapse key %v, its content has %v", c.Svc.Name, p.DeliveryID, p.key, k)
		}
		if d := c.peerDest(p.Msg); p.peer != d {
			return fmt.Errorf("core: %s: entry %s records destination %q, its content goes to %q", c.Svc.Name, p.DeliveryID, p.peer, d)
		}
		peers[p.peer]++
		if out[p.peer] == nil {
			out[p.peer] = map[uint64]bool{}
		}
		out[p.peer][deliver.Seq(p.DeliveryID)] = true
		if p.key.kind != 0 && !slices.Contains(c.qbyKey[p.key], p) {
			return fmt.Errorf("core: %s: live entry %s missing from the collapse-key index", c.Svc.Name, p.DeliveryID)
		}
	}
	if live != c.qlive {
		return fmt.Errorf("core: %s: qlive %d, the queue holds %d live entries", c.Svc.Name, c.qlive, live)
	}
	if len(c.qbyID) != live {
		return fmt.Errorf("core: %s: delivery-ID index holds %d entries, the queue %d live", c.Svc.Name, len(c.qbyID), live)
	}
	for k, l := range c.qbyKey {
		if len(l) == 0 {
			return fmt.Errorf("core: %s: collapse key %v indexes no entry", c.Svc.Name, k)
		}
		for i, p := range l {
			if !p.queued || p.key != k {
				return fmt.Errorf("core: %s: collapse key %v indexes entry %s (live %v, key %v)", c.Svc.Name, k, p.DeliveryID, p.queued, p.key)
			}
			if i > 0 && l[i-1].pos >= p.pos {
				return fmt.Errorf("core: %s: collapse key %v lists entry %s before an older one", c.Svc.Name, k, p.DeliveryID)
			}
		}
	}
	if !maps.Equal(peers, c.qpeer) {
		return fmt.Errorf("core: %s: per-peer live counts %v, the queue holds %v", c.Svc.Name, c.qpeer, peers)
	}
	for peer, pv := range c.vectors {
		if !maps.Equal(pv.out, out[peer]) {
			return fmt.Errorf("core: %s: vector for %s has %d outstanding deliveries, the queue %d", c.Svc.Name, peer, len(pv.out), len(out[peer]))
		}
	}
	for peer := range out {
		if c.vectors[peer] == nil {
			return fmt.Errorf("core: %s: no vector for %s, which has queued deliveries", c.Svc.Name, peer)
		}
	}
	return nil
}

// Pending returns a snapshot of the outgoing queue, including held messages
// awaiting Retry; applications surface these to users so stale credentials
// can be refreshed (§7.2).
func (c *Controller) Pending() []PendingMsg {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	out := make([]PendingMsg, 0, c.qlive)
	for _, p := range c.queue {
		if p.queued {
			out = append(out, *p)
		}
	}
	return out
}

// QueueLen returns how many repair messages are queued (held or not).
func (c *Controller) QueueLen() int {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return c.qlive
}

// Retry revives a held repair message, optionally merging updated
// credential headers into its payload (Table 2's retry function: the
// application obtained fresh credentials and asks Aire to resend).
// Retrying a live (not-held) message without headers is a no-op — it is
// already being delivered; with headers, the refreshed content is applied
// through the same generation-bump supersede path queue collapsing uses,
// so a delivery in flight reconciles against the old generation and the
// updated content goes out on the next pass. Retry takes Svc.Mu, so it must
// not be called from a handler or from App.Authorize, which run under it;
// a Notifier may call it, since Notify runs outside every lock.
func (c *Controller) Retry(deliveryID string, updatedHeaders map[string]string) error {
	var p *PendingMsg
	c.commit("queue", func() {
		c.qmu.Lock()
		defer c.qmu.Unlock()
		if p = c.findQueuedLocked(deliveryID); p == nil {
			return
		}
		if !p.Held && len(updatedHeaders) == 0 {
			return // nothing to change; the message is live and being delivered
		}
		if len(updatedHeaders) > 0 {
			// Clone before merging: a delivery in flight may still be
			// reading the old request's header map.
			req := p.Msg.Req.Clone()
			if req.Header == nil {
				req.Header = map[string]string{}
			}
			for k, v := range updatedHeaders {
				req.Header[k] = v
			}
			p.Msg.Req = req
			// The generation bumps only when the content actually changed:
			// a plain revive is a redelivery of the same message, and must
			// look like one to the peer's dedup inbox — bumping it would
			// reclassify an already-applied delivery as new content.
			p.Gen++ // supersede any delivery of the old content in flight
		}
		p.Held = false
		p.Attempts = 0
		p.LastErr = ""
		c.walEmitQSetLocked(p)
		c.wakePump()
	})
	if p == nil {
		return fmt.Errorf("core: no pending message %s", deliveryID)
	}
	return nil
}

// Drop abandons a queued repair message, named by its delivery ID (the
// user chose not to pursue the repair, §4: "ask if the message should be
// dropped altogether"). Like Retry, it takes Svc.Mu: never call it from a
// handler or App.Authorize.
func (c *Controller) Drop(deliveryID string) error {
	var p *PendingMsg
	c.commit("queue", func() {
		c.qmu.Lock()
		defer c.qmu.Unlock()
		if p = c.removeQueuedLocked(deliveryID); p == nil {
			return
		}
		// Dropping a peer's last message leaves no delivery pass to clean
		// up its backoff bookkeeping — do it here.
		if peer := p.peer; !c.peerHasQueuedLocked(peer) {
			if ps := c.peers[peer]; ps != nil && !ps.inflight {
				delete(c.peers, peer)
			}
		}
	})
	if p == nil {
		return fmt.Errorf("core: no pending message %s", deliveryID)
	}
	return nil
}

// findQueuedLocked returns the live queue entry with the given delivery ID,
// or nil. Caller holds qmu.
func (c *Controller) findQueuedLocked(deliveryID string) *PendingMsg {
	p := c.qbyID[deliveryID]
	if p != nil {
		c.met.queueVisits.Inc()
	}
	if queueLookupHook != nil {
		queueLookupHook(c, nil, deliveryID, p)
	}
	return p
}

// dequeueLocked is the one way a message leaves the queue (delivered, gone,
// dropped, or a replayed q-del): it clears membership and unlinks the
// entry from the indexes, leaving it in the slice until dead entries
// outnumber live ones (compactLocked), resolves the delivery in the
// sender's version vector, and logs the q-del. Caller holds qmu (and, with
// a writer attached, Svc.Mu with a batch open).
func (c *Controller) dequeueLocked(p *PendingMsg) {
	p.queued = false
	c.qlive--
	c.unlinkLocked(p)
	c.met.queueDepth.Set(int64(c.qlive))
	if c.qlive == 0 {
		c.qcond.Broadcast()
	}
	if pv := c.vectors[p.peer]; pv != nil {
		delete(pv.out, deliver.Seq(p.DeliveryID))
	}
	if c.walAttached() {
		c.walEmit(&walOp{Kind: "q-del", QDel: qDelOp{DeliveryID: p.DeliveryID}})
	}
	if len(c.queue)-c.qlive > c.qlive {
		c.compactLocked()
	}
}

// removeQueuedLocked is Drop's and replay's q-del: find and dequeue. It
// returns the message, or nil when none is queued. Caller holds qmu.
func (c *Controller) removeQueuedLocked(deliveryID string) *PendingMsg {
	p := c.findQueuedLocked(deliveryID)
	if p != nil {
		c.dequeueLocked(p)
	}
	return p
}

// mintResponseToken stores a replace_response's corrected response under
// the message's token — minted once, reused across delivery attempts and
// content revisions — for the audience allowed to fetch it; an empty
// audience makes the token a bearer capability (a polling client has no
// transport identity).
func (c *Controller) mintResponseToken(p *PendingMsg, audience string) error {
	m := &p.Msg
	if p.token == "" {
		p.token = c.Svc.IDs.Token()
	}
	payload, err := json.Marshal(respRepairPayload{
		RespID:      m.RespID,
		RemoteReqID: m.LocalReqID,
		Resp:        m.Resp.Encode(),
	})
	if err != nil {
		return err
	}
	c.tokmu.Lock()
	c.tokens[p.token] = tokenEntry{audience: audience, payload: payload}
	c.tokmu.Unlock()
	return nil
}

// parkForPolling places a response-repair token in the named client's
// mailbox. The token itself is the fetch capability (bearer semantics),
// since an unauthenticated polling client has no transport identity.
func (c *Controller) parkForPolling(p *PendingMsg, clientID string) deliverStatus {
	if err := c.mintResponseToken(p, ""); err != nil {
		p.LastErr = err.Error()
		return deliverGone
	}
	c.tokmu.Lock()
	defer c.tokmu.Unlock()
	// The token is reused across delivery attempts (a superseded-in-flight
	// message is redelivered with the same token); don't hand the client a
	// duplicate it would fail to fetch twice.
	for _, t := range c.mailboxes[clientID] {
		if t == p.token {
			return deliverOK
		}
	}
	c.mailboxes[clientID] = append(c.mailboxes[clientID], p.token)
	return deliverOK
}

type deliverStatus int

const (
	deliverOK deliverStatus = iota
	// deliverRetry: the peer itself is unavailable (transport failure, or an
	// answer that means the peer is down or busy). Everything else bound for
	// it would fail the same way, so the pump backs the peer off; the
	// message stays live and uncharged.
	deliverRetry
	// deliverRetryMsg: the peer answered but failed this one message (an
	// unexpected status). Only this message is charged; the rest of its
	// frame is unaffected.
	deliverRetryMsg
	deliverDenied
	deliverGone
)

// carrierFor builds the repair-plane carrier for one claimed message — the
// encoding §3.1 describes: the operation in the Aire-Repair header, the
// repaired request in the body, and for replace_response only a token the
// notified service fetches the corrected response with (§3.1's two-step
// handshake). A message that needs no wire call settles here instead (send
// false): a browser-style client with a poll:// notifier URL cannot accept
// inbound connections, so its token is parked in a mailbox it polls, and a
// message that cannot be addressed is gone. p is the delivery pass's
// private snapshot.
func (c *Controller) carrierFor(p *PendingMsg) (req wire.Request, st deliverStatus, send bool) {
	m := &p.Msg
	switch m.Kind {
	case warp.OutReplace, warp.OutDelete, warp.OutCreate:
		req = wire.NewRequest("POST", "/aire/repair")
		req.Header[wire.HdrRepair] = string(m.Kind)
		if m.RemoteReqID != "" {
			req.Header[wire.HdrRequestID] = m.RemoteReqID
		}
		if m.Kind != warp.OutDelete {
			req.Header[wire.HdrResponseID] = m.RespID
			req.Header[wire.HdrNotifierURL] = transport.NotifierURL(c.Svc.Name)
			req.Body = m.Req.Encode()
		}
		if m.Kind == warp.OutCreate {
			req.Form["before_id"] = m.BeforeID
			req.Form["after_id"] = m.AfterID
		}
		// Credentials ride on the repaired request's own headers; for delete
		// (which has no payload) copy them onto the carrier so the peer's
		// authorize can check the issuing principal (§4).
		for k, v := range m.Req.Header {
			if !wire.IsAireHeader(k) {
				req.Header[k] = v
			}
		}
	case warp.OutReplaceResponse:
		if clientID, ok := transport.ParsePollNotifierURL(m.NotifierURL); ok {
			return req, c.parkForPolling(p, clientID), false
		}
		audience, path, err := transport.ParseNotifierURL(m.NotifierURL)
		if err == nil {
			err = c.mintResponseToken(p, audience)
		}
		if err != nil {
			p.LastErr = err.Error()
			return req, deliverGone, false
		}
		req = wire.NewRequest("POST", path).WithForm("token", p.token, "server", c.Svc.Name)
	default:
		p.LastErr = "unknown repair kind " + string(m.Kind)
		return req, deliverGone, false
	}
	// Exactly-once session headers: the delivery ID and the generation this
	// attempt claimed (p is a snapshot), so the peer's inbox re-acks
	// duplicates and discards delayed superseded content. The vector, body
	// checksum and shard ride on the frame (sendFrame).
	if p.TraceID != "" {
		req.Header[wire.HdrTraceID] = p.TraceID
		req.Header[wire.HdrTraceHop] = strconv.Itoa(p.TraceHop)
	}
	req.Header[wire.HdrDeliveryID] = p.DeliveryID
	req.Header[wire.HdrGeneration] = strconv.FormatUint(p.Gen, 10)
	req.Header[wire.HdrOrigin] = c.Svc.Name
	return req, deliverOK, true
}

// sendFrame POSTs one frame body to peer and returns one answer per
// carrier. The frame-level headers are stamped here, once: the version
// vector for this (peer, shard) — announced per frame, so it is as fresh as
// the last reconcile — the end-to-end body checksum (a corrupted frame is
// refused loudly, never misapplied), and when peer is a shard name its
// shard, so a router can dispatch without re-deriving it and a shard can
// refuse a misrouted frame. err reports the peer unreachable: a transport
// failure, or a reply that does not answer every carrier. A refusal of the
// frame as a whole (any status but 200) answers every carrier with it.
func (c *Controller) sendFrame(peer string, body []byte, n int) (resps []wire.Response, nacked bool, err error) {
	req := wire.NewRequest("POST", wire.FramePath)
	req.Body = body
	req.Header[wire.HdrBodySum] = wire.BodySum(body)
	req.Header[wire.HdrOrigin] = c.Svc.Name
	if acked, frontier, reoffer, ok := c.vvAnnouncement(peer); ok {
		req.Header[wire.HdrAckedSeq] = strconv.FormatUint(acked, 10)
		req.Header[wire.HdrFrontierSeq] = strconv.FormatUint(frontier, 10)
		if reoffer {
			req.Header[wire.HdrReoffer] = "1"
		}
	}
	if wire.ShardBaseName(peer) != peer {
		req.Header[wire.HdrShard] = peer
		// The window between resolving a shard and sending to it is a
		// named schedule point so seeded runs cover interleavings between
		// claim and send. A one-shard peer has no shard to resolve.
		c.sd.YieldNamed("shard-gate")
	}
	resp, err := c.Net.Call(c.Svc.Name, peer, req)
	if err != nil {
		return nil, false, err
	}
	// A gap NACK can ride any response, whatever its status: the peer
	// detected a missing delivery against our announced vector and wants an
	// immediate re-offer.
	nacked = resp.Header[wire.HdrNackSeq] != ""
	if resp.Status != 200 {
		resps = make([]wire.Response, n)
		for i := range resps {
			resps[i] = resp
		}
		return resps, nacked, nil
	}
	resps, err = wire.DecodeFrameReply(resp.Body, n)
	return resps, nacked, err
}

// replyStatus maps the peer's answer to one carrier onto its delivery
// status, recording the failure detail on the snapshot.
func replyStatus(p *PendingMsg, resp wire.Response) deliverStatus {
	switch {
	case resp.OK():
		return deliverOK
	case resp.Status == 401 || resp.Status == 403:
		p.LastErr = string(resp.Body)
		return deliverDenied
	case resp.Status == 410:
		p.LastErr = string(resp.Body)
		return deliverGone
	}
	p.LastErr = fmt.Sprintf("peer returned %d: %s", resp.Status, resp.Body)
	if unavailableStatus(resp.Status) {
		return deliverRetry
	}
	return deliverRetryMsg
}

// unavailableStatus reports statuses that mean the peer itself is down even
// though something answered — a gateway fronting a dead service, a busy
// inbox, or a timeout placeholder. They get peer-level (backoff) treatment
// like a transport error, not message-level blame.
func unavailableStatus(status int) bool {
	switch status {
	case 502, 503, 504, wire.StatusTimeout:
		return true
	}
	return false
}
