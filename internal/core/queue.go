package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

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
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	for _, m := range msgs {
		c.met.msgsQueued.Inc()
		p := c.q.collapseTarget(&m)
		if p != nil {
			next := *p // keep the newest content, the oldest position
			next.Msg, next.Held, next.Attempts = m, false, 0
			next.Gen++ // supersede any delivery of the old content in flight
			// Trace follows content: the surviving delivery carries
			// the superseding repair's wave.
			next.TraceID, next.TraceHop = tc.wave, hop
			c.q.relink(p, next)
		} else {
			p = &PendingMsg{
				DeliveryID: c.Svc.IDs.Delivery(),
				Msg:        m,
				TraceID:    tc.wave,
				TraceHop:   hop,
			}
			c.q.push(p)
		}
		c.walEmitQSetLocked(p)
		c.spanEnqueueLocked(p)
	}
	c.wakePump()
}

// spanEnqueueLocked records the enqueue span of one queued (or
// re-collapsed) message. Caller holds q.mu; no-op with obs disabled.
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

// outQueue is the outgoing queue and what its delivery keeps per
// destination. One mutex guards all of it, and every method runs with mu
// held.
//
// The entries are a slice in queue (FIFO) order plus two indexes over the
// live ones: by delivery ID (byID) and by collapse key (byKey, each key's
// entries oldest first). A message leaving the queue only clears its
// membership and unlinks it from the indexes; the slice drops dead entries
// in one pass once they outnumber live ones. So a collapse lookup, a find
// by delivery ID, a replayed q-set or q-del and a removal each cost O(1)
// amortized, and a wave of n messages costs O(n) to queue and to replay.
// Only a claim walk scans the slice. Each destination has one record
// (dest), whose outstanding set holds exactly the sequences of its live
// entries, so whether a peer still has messages is len(d.out). verify
// checks all of it against a scan.
type outQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast whenever live drops to 0 (WaitQueueEmpty)
	entries []*PendingMsg
	live    int    // entries with queued=true
	next    uint64 // the next entry's position
	byID    map[string]*PendingMsg
	byKey   map[qkey][]*PendingMsg
	dests   map[string]*dest
	// cascadeInflight counts claimed-but-unreconciled cascade-class
	// batches; admission's MaxShare budget is enforced against it at claim
	// time.
	cascadeInflight int

	route  func(warp.OutMsg) string // a message's destination (Controller.peerDest)
	visits *obs.Counter             // the controller's queue_visits
	depth  *obs.Gauge               // the controller's queue_depth
}

// dest is everything the queue keeps for one destination: its delivery
// health, its sender version vector (vectors.go), and its live calls. A
// record is made the first time anything names the destination and is
// kept from then on, so the vector outlives the messages it counts. It
// holds no batch-sizing state: the batch policy sizes every claim from the
// pass's backlog snapshot alone.
type dest struct {
	// inflight marks a claimed batch not yet reconciled; at most one batch
	// per destination is in flight, which is what preserves per-peer FIFO
	// order.
	inflight bool
	// failures counts consecutive retryable delivery failures.
	failures int
	// nextTry gates delivery attempts while backing off.
	nextTry time.Time
	// notified marks that the administrator was told about this outage
	// (reset when the peer becomes reachable again).
	notified bool

	// out holds the sequences of the destination's live entries: its
	// unresolved deliveries.
	out map[uint64]bool
	// frontier is the highest sequence ever issued to the destination.
	frontier uint64
	// reoffer is set when the peer NACKed a gap and cleared once a batch to
	// the peer reconciles fully healthy; while set, stamped carriers carry
	// wire.HdrReoffer so the transport fabric (and the simulator's lostwave
	// fault class) treats them as anti-entropy recovery traffic.
	reoffer bool

	// liveCalls counts in-flight live (non-repair) outbound calls to the
	// destination; admission control trickles repair delivery to peers
	// that are actively serving the live workload.
	liveCalls int
}

func newOutQueue(route func(warp.OutMsg) string, visits *obs.Counter, depth *obs.Gauge) *outQueue {
	q := &outQueue{
		byID:   make(map[string]*PendingMsg),
		byKey:  make(map[qkey][]*PendingMsg),
		dests:  make(map[string]*dest),
		route:  route,
		visits: visits,
		depth:  depth,
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// dest returns the named destination's record, making it on first use.
func (q *outQueue) dest(name string) *dest {
	d := q.dests[name]
	if d == nil {
		d = &dest{out: map[uint64]bool{}}
		q.dests[name] = d
	}
	return d
}

// resetHealth gives d the delivery health of a fresh record: reachable,
// not backing off, no outage notified.
func (d *dest) resetHealth() {
	d.failures, d.nextTry, d.notified = 0, time.Time{}, false
}

// queueLookupHook, when set (by tests only), observes every index lookup:
// a collapse lookup for m, or a find by delivery ID, and the entry the
// index picked.
var queueLookupHook func(q *outQueue, m *warp.OutMsg, deliveryID string, picked *PendingMsg)

// collapseTarget returns the live entry a new message m collapses onto —
// the oldest one with m's key — or nil.
func (q *outQueue) collapseTarget(m *warp.OutMsg) *PendingMsg {
	var p *PendingMsg
	if l := q.byKey[collapseKey(m)]; len(l) > 0 { // never-collapsing messages are never keyed
		p = l[0]
	}
	return q.looked(m, "", p)
}

// find returns the live entry with the given delivery ID, or nil.
func (q *outQueue) find(deliveryID string) *PendingMsg {
	return q.looked(nil, deliveryID, q.byID[deliveryID])
}

// looked counts an index lookup's pick as one visit and shows it to the
// lookup hook.
func (q *outQueue) looked(m *warp.OutMsg, deliveryID string, picked *PendingMsg) *PendingMsg {
	if picked != nil {
		q.visits.Inc()
	}
	if queueLookupHook != nil {
		queueLookupHook(q, m, deliveryID, picked)
	}
	return picked
}

// push adds p at the tail of the queue as a live entry and links it.
func (q *outQueue) push(p *PendingMsg) {
	p.queued = true
	p.pos = q.next
	q.next++
	q.entries = append(q.entries, p)
	q.live++
	q.link(p)
	q.depth.Set(int64(q.live))
}

// relink replaces a live entry's state with m, except what is never
// recorded — its response token, a claim in flight, and its place in the
// queue — and re-derives its index coordinates, moving its delivery to
// the new content's destination.
func (q *outQueue) relink(p *PendingMsg, m PendingMsg) {
	m.token, m.inflight, m.queued, m.pos = p.token, p.inflight, true, p.pos
	q.unlink(p)
	*p = m
	q.link(p)
}

// upsert is the one replay/restore insert: it upserts a queue entry by
// delivery ID, as recorded by a q-set op or a checkpoint. The caller has
// checked the entry with restorable.
func (q *outQueue) upsert(m PendingMsg) {
	if p := q.find(m.DeliveryID); p != nil {
		q.relink(p, m)
		return
	}
	m.inflight = false
	q.push(&m)
}

// link derives a live entry's collapse key and destination from its
// content, adds it to the indexes, and issues its delivery in the
// destination's vector (idempotent: out is a set).
func (q *outQueue) link(p *PendingMsg) {
	p.key, p.peer = collapseKey(&p.Msg), q.route(p.Msg)
	q.byID[p.DeliveryID] = p
	d, seq := q.dest(p.peer), deliver.Seq(p.DeliveryID)
	d.out[seq] = true
	d.frontier = max(d.frontier, seq)
	if p.key.kind == 0 {
		return
	}
	// Keep each key's entries in queue order. An entry almost always joins
	// at the tail; only a restored entry whose content changed key can
	// land before a newer one.
	l := append(q.byKey[p.key], p)
	for i := len(l) - 1; i > 0 && l[i-1].pos > p.pos; i-- {
		l[i-1], l[i] = l[i], l[i-1]
	}
	q.byKey[p.key] = l
}

// unlink removes a live entry from the indexes and its delivery from its
// destination's outstanding set.
func (q *outQueue) unlink(p *PendingMsg) {
	delete(q.byID, p.DeliveryID)
	delete(q.dests[p.peer].out, deliver.Seq(p.DeliveryID))
	if p.key.kind == 0 {
		return
	}
	l := q.byKey[p.key]
	for i, e := range l {
		if e == p {
			q.visits.Add(int64(i + 1))
			l = append(l[:i], l[i+1:]...)
			break
		}
	}
	if len(l) == 0 {
		delete(q.byKey, p.key)
	} else {
		q.byKey[p.key] = l
	}
}

// dequeue is the one way a message leaves the queue (delivered, gone,
// dropped, or a replayed q-del): it clears membership and unlinks the
// entry, which resolves its delivery in its destination's vector, leaving
// it in the slice until dead entries outnumber live ones.
func (q *outQueue) dequeue(p *PendingMsg) {
	p.queued = false
	q.live--
	q.unlink(p)
	q.depth.Set(int64(q.live))
	if q.live == 0 {
		q.cond.Broadcast()
	}
	if len(q.entries)-q.live > q.live {
		q.compact()
	}
}

// compact drops dead entries (queued=false: delivered, gone, dropped) from
// the slice in one pass. dequeue runs it once dead entries outnumber live
// ones, so each removal pays O(1) amortized and the slice never holds more
// than twice the live entries.
func (q *outQueue) compact() {
	q.visits.Add(int64(len(q.entries)))
	kept := q.entries[:0]
	for _, p := range q.entries {
		if p.queued {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(q.entries); i++ {
		q.entries[i] = nil
	}
	q.entries = kept
}

// claimable is the claim walk: it calls fn on every entry a delivery pass
// may claim — live, not held, not already in flight — in queue order. A
// walk visits every entry.
func (q *outQueue) claimable(fn func(p *PendingMsg)) {
	q.visits.Add(int64(len(q.entries)))
	for _, p := range q.entries {
		if p.queued && !p.Held && !p.inflight {
			fn(p)
		}
	}
}

// release ends a claim: the batch's entries and its destination may be
// claimed again, and a cascade-class batch gives back its unit of the
// admission budget. It returns the destination's record.
func (q *outQueue) release(cl *claimedBatch) *dest {
	for _, p := range cl.ptrs {
		p.inflight = false
	}
	if cl.cascade {
		q.cascadeInflight--
	}
	d := q.dest(cl.peer)
	d.inflight = false
	return d
}

// snapshot copies the live entries, in queue order.
func (q *outQueue) snapshot() []PendingMsg {
	out := make([]PendingMsg, 0, q.live)
	for _, p := range q.entries {
		if p.queued {
			out = append(out, *p)
		}
	}
	return out
}

// verify cross-checks the indexes and records against a scan of the
// queue: the live count, the delivery-ID and collapse-key indexes (each
// key's entries oldest first), every live entry's recorded key and
// destination, and each destination's outstanding set. A pure read.
func (q *outQueue) verify() error {
	live := 0
	perDest := map[string]int{}
	var last *PendingMsg
	for _, p := range q.entries {
		if last != nil && p.pos <= last.pos {
			return fmt.Errorf("queue positions out of order at %s", p.DeliveryID)
		}
		last = p
		if !p.queued {
			continue
		}
		live++
		if q.byID[p.DeliveryID] != p {
			return fmt.Errorf("live entry %s missing from the delivery-ID index", p.DeliveryID)
		}
		if k := collapseKey(&p.Msg); p.key != k {
			return fmt.Errorf("entry %s records collapse key %v, its content has %v", p.DeliveryID, p.key, k)
		}
		if d := q.route(p.Msg); p.peer != d {
			return fmt.Errorf("entry %s records destination %q, its content goes to %q", p.DeliveryID, p.peer, d)
		}
		if d := q.dests[p.peer]; d == nil || !d.out[deliver.Seq(p.DeliveryID)] {
			return fmt.Errorf("vector for %s lacks live delivery %s", p.peer, p.DeliveryID)
		}
		perDest[p.peer]++
		if p.key.kind != 0 && !slices.Contains(q.byKey[p.key], p) {
			return fmt.Errorf("live entry %s missing from the collapse-key index", p.DeliveryID)
		}
	}
	if live != q.live {
		return fmt.Errorf("live count %d, the queue holds %d live entries", q.live, live)
	}
	if len(q.byID) != live {
		return fmt.Errorf("delivery-ID index holds %d entries, the queue %d live", len(q.byID), live)
	}
	for k, l := range q.byKey {
		if len(l) == 0 {
			return fmt.Errorf("collapse key %v indexes no entry", k)
		}
		for i, p := range l {
			if !p.queued || p.key != k {
				return fmt.Errorf("collapse key %v indexes entry %s (live %v, key %v)", k, p.DeliveryID, p.queued, p.key)
			}
			if i > 0 && l[i-1].pos >= p.pos {
				return fmt.Errorf("collapse key %v lists entry %s before an older one", k, p.DeliveryID)
			}
		}
	}
	for name, d := range q.dests {
		if len(d.out) != perDest[name] {
			return fmt.Errorf("vector for %s has %d outstanding deliveries, the queue %d", name, len(d.out), perDest[name])
		}
	}
	return nil
}

// VerifyQueue cross-checks the outgoing queue's indexes and per-destination
// records against a scan of the queue (outQueue.verify). A pure read under
// the queue's mutex; the simulator runs it on every controller after every
// run.
func (c *Controller) VerifyQueue() error {
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	if err := c.q.verify(); err != nil {
		return fmt.Errorf("core: %s: %w", c.Svc.Name, err)
	}
	return nil
}

// Pending returns a snapshot of the outgoing queue, including held messages
// awaiting Retry; applications surface these to users so stale credentials
// can be refreshed (§7.2).
func (c *Controller) Pending() []PendingMsg {
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	return c.q.snapshot()
}

// QueueLen returns how many repair messages are queued (held or not).
func (c *Controller) QueueLen() int {
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	return c.q.live
}

// WaitQueueEmpty blocks until the outgoing queue has no live messages (held
// or not) or the timeout elapses, reporting whether it emptied. It is the
// race-free way to wait out the background pump — tests and shutdown paths
// use it instead of sleep-polling QueueLen.
func (c *Controller) WaitQueueEmpty(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	expired := false
	timer := time.AfterFunc(timeout, func() {
		c.q.mu.Lock()
		expired = true
		c.q.mu.Unlock()
		c.q.cond.Broadcast()
	})
	defer timer.Stop()
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	for c.q.live > 0 && !expired && time.Now().Before(deadline) {
		c.q.cond.Wait()
	}
	return c.q.live == 0
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
		c.q.mu.Lock()
		defer c.q.mu.Unlock()
		if p = c.q.find(deliveryID); p == nil {
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
		c.q.mu.Lock()
		defer c.q.mu.Unlock()
		if p = c.q.find(deliveryID); p == nil {
			return
		}
		c.dequeueLocked(p)
		// Dropping a peer's last message leaves no delivery pass to clean
		// up its backoff bookkeeping — do it here.
		if d := c.q.dest(p.peer); len(d.out) == 0 && !d.inflight {
			d.resetHealth()
		}
	})
	if p == nil {
		return fmt.Errorf("core: no pending message %s", deliveryID)
	}
	return nil
}

// dequeueLocked takes p out of the queue (outQueue.dequeue) and logs the
// q-del. Caller holds q.mu (and, with a writer attached, Svc.Mu with a
// batch open).
func (c *Controller) dequeueLocked(p *PendingMsg) {
	c.q.dequeue(p)
	if c.walAttached() {
		c.walEmit(&walOp{Kind: "q-del", QDel: p.DeliveryID})
	}
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
