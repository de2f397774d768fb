package core

import (
	"encoding/json"
	"fmt"
	"strconv"

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
func (c *Controller) enqueue(msgs []warp.OutMsg, tc traceCtx) {
	c.enqueueJoin(msgs, false, tc)
}

// enqueueJoin is enqueue with control over WAL batching: with join set the
// q-set ops fold into the caller's open WAL batch instead of landing as
// standalone entries, making the enqueue atomic with whatever the caller is
// committing (a repair's mutations, a frame's inbox outcomes). Only callers
// holding Svc.Mu with a batch open may pass join=true — a standalone
// caller's join would race another goroutine's open batch.
func (c *Controller) enqueueJoin(msgs []warp.OutMsg, join bool, tc traceCtx) {
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
		if key := collapseKey(m); key != "" {
			replaced := false
			for _, p := range c.queue {
				if p.queued && collapseKey(p.Msg) == key {
					p.Msg = m // keep the newest content, the oldest position
					p.Held = false
					p.Attempts = 0
					p.Gen++ // supersede any delivery of the old content in flight
					// Trace follows content: the surviving delivery carries
					// the superseding repair's wave.
					p.TraceID = tc.wave
					p.TraceHop = hop
					c.walEmitQSetJoinLocked(p, join)
					c.spanEnqueueLocked(p)
					replaced = true
					break
				}
			}
			if replaced {
				continue
			}
		}
		c.nextID++
		p := &PendingMsg{
			MsgID:      fmt.Sprintf("%s-msg-%d", c.Svc.Name, c.nextID),
			DeliveryID: c.Svc.IDs.Delivery(),
			Msg:        m,
			TraceID:    tc.wave,
			TraceHop:   hop,
			queued:     true,
		}
		c.queue = append(c.queue, p)
		c.qlive++
		c.vvIssueLocked(c.peerDest(m), p.DeliveryID)
		c.walEmitQSetJoinLocked(p, join)
		c.spanEnqueueLocked(p)
		c.emit(EvMsgQueued, p.MsgID, "%s -> %s (req=%s resp=%s)", m.Kind, m.Target, m.RemoteReqID, m.RespID)
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
		Kind: obs.SpanEnqueue, Subject: p.DeliveryID, Peer: c.peerDest(p.Msg),
		StartNS: now, EndNS: now,
	})
}

// collapseKey identifies the request/response a repair message is about;
// messages with equal keys supersede one another. Creates are never
// collapsed (each denotes a distinct new request). Response repairs
// collapse by the local record whose response changed, not by client
// response ID: re-repairing a request replaces its outgoing calls and
// mints fresh response IDs, so a still-queued replace_response naming the
// old ID is superseded by the new one — it could never be applied (the
// client's call record no longer carries the old ID) and would otherwise
// retry into a parked 404.
func collapseKey(m warp.OutMsg) string {
	switch m.Kind {
	case warp.OutReplace, warp.OutDelete:
		return "req|" + m.Target + "|" + m.RemoteReqID
	case warp.OutReplaceResponse:
		id := m.LocalReqID
		if id == "" {
			id = m.RespID
		}
		return "resp|" + m.NotifierURL + "|" + id
	}
	return ""
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
// updated content goes out on the next pass.
func (c *Controller) Retry(msgID string, updatedHeaders map[string]string) error {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for _, p := range c.queue {
		if !p.queued || p.MsgID != msgID {
			continue
		}
		if !p.Held && len(updatedHeaders) == 0 {
			// Nothing to change; the message is live and being delivered.
			return nil
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
		return nil
	}
	return fmt.Errorf("core: no pending message %s", msgID)
}

// Drop abandons a queued repair message (the user chose not to pursue the
// repair, §4: "ask if the message should be dropped altogether").
func (c *Controller) Drop(msgID string) error {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for i, p := range c.queue {
		if p.queued && p.MsgID == msgID {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			p.queued = false
			c.queueShrunkLocked()
			c.vvResolveLocked(c.peerDest(p.Msg), p.DeliveryID)
			c.walEmitQDelLocked(p.MsgID, false)
			// Dropping a peer's last message leaves no delivery pass to
			// clean up its backoff bookkeeping — do it here.
			if peer := c.peerDest(p.Msg); !c.peerHasQueuedLocked(peer) {
				if ps := c.peers[peer]; ps != nil && !ps.inflight {
					delete(c.peers, peer)
				}
			}
			return nil
		}
	}
	return fmt.Errorf("core: no pending message %s", msgID)
}

// ImportQueue restores a persisted outgoing queue (appended to any current
// contents, re-collapsed by message identity).
func (c *Controller) ImportQueue(msgs []PendingMsg) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for _, m := range msgs {
		p := m
		p.inflight = false
		// Gen and DeliveryID are preserved from the snapshot: the peer's
		// dedup inbox may already remember this delivery at this
		// generation, and restarting either at zero would make a
		// post-restart redelivery look stale (or brand-new) to it.
		p.queued = true
		if key := collapseKey(p.Msg); key != "" {
			replaced := false
			for _, q := range c.queue {
				if q.queued && collapseKey(q.Msg) == key {
					q.Msg = p.Msg
					q.Held = p.Held
					q.Attempts = p.Attempts
					q.LastErr = p.LastErr
					q.TraceID = p.TraceID // trace follows content
					q.TraceHop = p.TraceHop
					if p.Gen > q.Gen {
						q.Gen = p.Gen
					}
					q.Gen++ // supersede any delivery of the old content in flight
					replaced = true
					break
				}
			}
			if replaced {
				continue
			}
		}
		c.nextID++
		if p.MsgID == "" {
			p.MsgID = fmt.Sprintf("%s-msg-%d", c.Svc.Name, c.nextID)
		}
		if p.DeliveryID == "" {
			p.DeliveryID = c.Svc.IDs.Delivery()
		}
		c.queue = append(c.queue, &p)
		c.qlive++
		c.vvIssueLocked(c.peerDest(p.Msg), p.DeliveryID)
	}
	c.wakePump()
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
	c.stampDelivery(req, p)
	return req, deliverOK, true
}

// stampDelivery adds the exactly-once session headers to a repair-plane
// carrier: the queue entry's durable delivery identity and the content
// generation claimed for this attempt, so the peer's dedup inbox can
// re-acknowledge duplicates and discard delayed superseded content. p is
// the delivery pass's private snapshot, so p.Gen is the claimed generation.
// What is said once per frame — the version vector, the body checksum, the
// destination shard — rides on the frame (sendFrame).
func (c *Controller) stampDelivery(req wire.Request, p *PendingMsg) {
	// Trace context is stamped even on hand-built entries: it is
	// observability-only, so it never needs the delivery-identity gate.
	if p.TraceID != "" {
		req.Header[wire.HdrTraceID] = p.TraceID
		req.Header[wire.HdrTraceHop] = strconv.Itoa(p.TraceHop)
	}
	if p.DeliveryID == "" {
		return // hand-built entry (tests, legacy snapshots): deliver ungated
	}
	req.Header[wire.HdrDeliveryID] = p.DeliveryID
	req.Header[wire.HdrGeneration] = strconv.FormatUint(p.Gen, 10)
	req.Header[wire.HdrOrigin] = c.Svc.Name
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
