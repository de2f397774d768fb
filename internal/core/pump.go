package core

import (
	"context"
	"fmt"
	"time"

	"aire/internal/obs"
	"aire/internal/repairlog"
	"aire/internal/sched"
	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/wire"
)

// This file implements the repair pump: the delivery engine behind the
// outgoing queue. A production deployment pumps queues continuously in the
// background (§3: repair propagates asynchronously and must ride out slow
// and offline peers), so delivery is organized around three ideas:
//
//   - Partitioning. The queue is partitioned by destination peer. Messages
//     to the same peer form one batch, delivered in FIFO order on a single
//     worker (the paper's per-service ordering requirement); batches to
//     distinct peers are independent and may run concurrently.
//
//   - Claim/reconcile. A delivery pass claims messages under qmu, sends the
//     peer's claim as one frame (wire.FramePath) built from private
//     snapshots with no locks held, and reconciles the frame's outcomes in
//     one critical section with one WAL entry. Retry, Drop, and queue collapsing may run at any
//     point in between: each PendingMsg carries a generation counter, and a
//     reconcile only applies to the generation it claimed — a message whose
//     content was superseded mid-flight simply stays queued for another
//     pass.
//
//   - Backoff. An unreachable peer is retried on a fixed exponential
//     schedule read from an injectable clock. Its messages stay live —
//     a transport failure never charges a message's Attempts or parks it
//     — and the administrator is notified once per outage.
//
// A background pump pass honors every pump policy: the adaptive batch
// limits, admission, and the retry window. Flush is "deliver now": one
// synchronous pass that ignores them all, delivering every deliverable
// message in queue order — deterministic, for tests and Settle. StartPump
// runs passes continuously with a bounded worker pool, fanning batches
// out to distinct peers concurrently.

// The retry schedule for unreachable peers: the delay after a peer's n-th
// consecutive transport failure is backoffBase·2^(n-1), capped at
// BackoffMax. Waiting out BackoffMax of clock time therefore elapses any
// peer's retry window.
const (
	backoffBase = 50 * time.Millisecond
	BackoffMax  = 5 * time.Second
)

// backoffDelay returns the retry delay after n consecutive failures.
func backoffDelay(n int) time.Duration {
	if n < 1 {
		return 0
	}
	d := backoffBase
	for i := 1; i < n && d < BackoffMax; i++ {
		d *= 2
	}
	return min(d, BackoffMax)
}

// MaxAttempts is how many times a reachable peer may reject one queued
// repair message before it is parked and the application notified (it can
// still be revived with Retry), and how many consecutive transport failures
// make a backing-off peer "unreachable" to the administrator.
const MaxAttempts = 3

// The background pump's shape: how many peers it delivers to concurrently
// (batches to one peer are never concurrent, so per-peer FIFO order holds),
// and the pacing of its periodic passes — the ones that retry peers whose
// backoff delay has elapsed.
const (
	pumpWorkers  = 4
	pumpInterval = 25 * time.Millisecond
)

// now reads the controller's clock (Config.Clock, or the wall clock).
func (c *Controller) now() time.Time {
	if c.Cfg.Clock != nil {
		return c.Cfg.Clock()
	}
	return time.Now()
}

// peerState tracks delivery health for one destination peer. Guarded by qmu.
type peerState struct {
	// inflight marks a claimed batch not yet reconciled; at most one batch
	// per peer is in flight, which is what preserves per-peer FIFO order.
	inflight bool
	// failures counts consecutive retryable delivery failures.
	failures int
	// nextTry gates delivery attempts while backing off.
	nextTry time.Time
	// notified marks that the administrator was told about this outage
	// (reset when the peer becomes reachable again).
	notified bool
	// limit is the per-peer claim limit the last claim used — the adaptive
	// batch policy's growth state. It survives successful reconciles while
	// the peer still has backlog and resets (entry deleted) once the peer
	// drains, which is exactly the policy's shrink-to-idle behavior.
	limit int
}

// peerKey names the destination a repair message is delivered to: the target
// service for repair calls, the notifier's host service (or polling client)
// for replace_response.
func peerKey(m warp.OutMsg) string {
	if m.Kind == warp.OutReplaceResponse {
		if clientID, ok := transport.ParsePollNotifierURL(m.NotifierURL); ok {
			return "poll://" + clientID
		}
		if svc, _, err := transport.ParseNotifierURL(m.NotifierURL); err == nil {
			return svc
		}
		return m.NotifierURL
	}
	return m.Target
}

// claimedBatch is one peer's slice of the queue, claimed for delivery.
type claimedBatch struct {
	peer string
	ptrs []*PendingMsg // live queue entries (reconciled under qmu)
	snap []PendingMsg  // private copies delivered without locks
	gens []uint64      // generation of each entry at claim time
	// st and learned are each claimed message's delivery outcome and the
	// request ID its answer named, filled in by deliverBatch.
	st      []deliverStatus
	learned []string
	// limit is the batch's claim cap (0 = unbounded), resolved per peer.
	limit int
	// cascade marks a cascade-class batch (first message is a repair
	// carrier, not a replace_response); it holds one unit of the admission
	// MaxShare budget until the batch reconciles.
	cascade bool
}

// beginLiveCall / endLiveCall bracket one live (non-repair) outbound call
// to a peer; admission control reads the count at claim time to trickle
// repair delivery to peers that are actively serving live traffic.
func (c *Controller) beginLiveCall(peer string) {
	c.qmu.Lock()
	c.liveCalls[peer]++
	c.qmu.Unlock()
}

func (c *Controller) endLiveCall(peer string) {
	c.qmu.Lock()
	if c.liveCalls[peer]--; c.liveCalls[peer] <= 0 {
		delete(c.liveCalls, peer)
	}
	c.qmu.Unlock()
}

// peerBacklogs snapshots, for every peer with deliverable messages, how
// many are queued for it and the claim limit its previous batch used — the
// inputs the batch policy sizes the next claim from. Skipped peers
// (in-flight batch, backing off) are included: their limits are computed
// but unused this pass, which keeps the snapshot cheap and the policy
// stateless.
func (c *Controller) peerBacklogs() map[string][2]int {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	m := map[string][2]int{}
	for _, p := range c.queue {
		if !p.queued || p.Held || p.inflight {
			continue
		}
		k := c.peerDest(p.Msg)
		v := m[k]
		v[0]++
		m[k] = v
	}
	for k, v := range m {
		if ps := c.peers[k]; ps != nil {
			v[1] = ps.limit
			m[k] = v
		}
	}
	return m
}

// batchLimits asks the batch policy for a per-peer claim limit. Called
// with no locks held — the limits are advisory caps applied at claim time,
// not a reservation.
func (c *Controller) batchLimits(backlogs map[string][2]int) map[string]int {
	limits := make(map[string]int, len(backlogs))
	for peer, v := range backlogs {
		limits[peer] = c.Cfg.BatchPolicy.Limit(v[0], v[1])
	}
	return limits
}

// claimBatches partitions the deliverable queue by peer and claims
// messages, preserving queue (FIFO) order within each batch. Held
// messages, messages already in flight, and peers with a batch in flight
// are skipped. Flush passes pumpPass=false and nil limits: every peer's
// claim is unbounded. A pump pass applies the pump policies: a peer claims
// up to limits[peer], or the batch policy's floor when the peer is missing
// from the snapshot the limits came from (its first message arrived after
// it); peers still inside their retry window are skipped; and, unless
// Faults.NoAdmission is set, peers with live outbound calls in flight are
// capped at Admission.Burst and a new cascade-class batch is skipped
// entirely while the cascade worker budget is exhausted and response-class
// messages are waiting. Batches are returned in queue order of their first
// message.
func (c *Controller) claimBatches(limits map[string]int, pumpPass bool) []*claimedBatch {
	now := c.now()
	adm := c.Cfg.Admission.withDefaults()
	admit := pumpPass && !c.faults.NoAdmission
	// At least one worker may always carry cascades, so they make progress.
	maxCascade := max(int(adm.MaxShare*float64(pumpWorkers)), 1)
	floor, _ := c.Cfg.BatchPolicy.bounds()
	c.qmu.Lock()
	defer c.qmu.Unlock()
	// The MaxShare budget only bites while user-visible (response-class)
	// messages are actually waiting; one pre-pass answers that.
	respWaiting := false
	if admit {
		for _, p := range c.queue {
			if p.queued && !p.Held && !p.inflight && p.Msg.Kind == warp.OutReplaceResponse {
				respWaiting = true
				break
			}
		}
	}
	var order []*claimedBatch
	byPeer := map[string]*claimedBatch{}
	skipPeer := map[string]bool{}
	for _, p := range c.queue {
		if !p.queued || p.Held || p.inflight {
			continue
		}
		peer := c.peerDest(p.Msg)
		if skipPeer[peer] {
			continue
		}
		cl, ok := byPeer[peer]
		if !ok {
			ps := c.peers[peer]
			if ps == nil {
				ps = &peerState{}
				c.peers[peer] = ps
			}
			if ps.inflight || (pumpPass && now.Before(ps.nextTry)) {
				skipPeer[peer] = true
				continue
			}
			cascade := p.Msg.Kind != warp.OutReplaceResponse
			if admit && cascade && respWaiting && c.cascadeInflight >= maxCascade {
				// Cascade budget exhausted while responses wait: leave this
				// peer for a later pass so the reserved workers stay free
				// for the user-visible plane.
				skipPeer[peer] = true
				continue
			}
			l := 0 // Flush: unbounded
			if pumpPass {
				l = floor
				if pl, ok := limits[peer]; ok {
					l = pl
				}
			}
			if admit && c.liveCalls[peer] > 0 {
				// The peer is serving our live traffic right now: trickle.
				l = min(l, adm.Burst)
			}
			ps.inflight = true
			ps.limit = l
			if cascade && admit {
				c.cascadeInflight++
			}
			cl = &claimedBatch{peer: peer, limit: l, cascade: cascade && admit}
			byPeer[peer] = cl
			order = append(order, cl)
		}
		if cl.limit > 0 && len(cl.ptrs) >= cl.limit {
			continue
		}
		p.inflight = true
		cl.ptrs = append(cl.ptrs, p)
		cl.snap = append(cl.snap, *p)
		cl.gens = append(cl.gens, p.Gen)
	}
	if c.met.reg != nil {
		claimNS := c.now().UnixNano()
		for _, cl := range order {
			for i := range cl.snap {
				s := &cl.snap[i]
				if s.TraceID == "" {
					continue
				}
				c.met.ring.Record(obs.Span{
					Wave: s.TraceID, Hop: s.TraceHop, Service: c.Svc.Name,
					Kind: obs.SpanClaim, Subject: s.DeliveryID, Peer: cl.peer,
					StartNS: claimNS, EndNS: claimNS,
				})
			}
		}
	}
	return order
}

// peerHasQueuedLocked reports whether any live queue entry is bound for the
// named peer.
func (c *Controller) peerHasQueuedLocked(peer string) bool {
	for _, q := range c.queue {
		if q.queued && c.peerDest(q.Msg) == peer {
			return true
		}
	}
	return false
}

// compactLocked drops dead entries (queued=false: delivered, gone) from the
// queue slice in one pass. Reconciliation only clears the flag, so a
// delivery pass costs one compaction per batch rather than one O(n) splice
// per delivered message.
func (c *Controller) compactLocked() {
	kept := c.queue[:0]
	for _, q := range c.queue {
		if q.queued {
			kept = append(kept, q)
		}
	}
	for i := len(kept); i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = kept
}

// deliverBatch delivers one claimed batch as frames and reconciles each
// frame's outcomes. A pump pass's claim is bounded by its adaptive limit
// and travels as one frame; Flush claims without a limit, so
// wire.PackFrames splits its claim into frames that never exceed the
// decoder's carrier bound or the body cap. Each frame is one POST
// wire.FramePath, reconciled in one critical section with one WAL entry
// (reconcileFrame). A peer-level failure — a transport error, an unreadable
// reply, or a carrier the peer answered as unavailable — backs the peer off
// once for the whole batch; those messages, and any frame not yet sent,
// stay live and uncharged. A message-level failure (the peer answered, but
// refused that one carrier) charges only that message — one poisoned
// message must not block the peer's queue. Returns how many messages were
// delivered and removed.
func (c *Controller) deliverBatch(cl *claimedBatch) (delivered int) {
	cl.st = make([]deliverStatus, len(cl.ptrs))
	cl.learned = make([]string, len(cl.ptrs))
	// Build every carrier first; a message that needs no wire call settles
	// here and reconciles with the first frame.
	var members, sent []int
	var carriers []wire.Request
	for i := range cl.snap {
		req, st, send := c.carrierFor(&cl.snap[i])
		cl.st[i] = st
		if send {
			sent = append(sent, i)
			carriers = append(carriers, req)
		} else {
			members = append(members, i)
		}
	}
	bodies, counts := wire.PackFrames(carriers)
	var notes []Notification
	removed, failAt := 0, -1
	for k := 0; k == 0 || k < len(bodies); k++ {
		nacked := false
		if k < len(bodies) {
			frame := sent[:counts[k]]
			sent = sent[counts[k]:]
			nacked = c.deliverFrame(cl, bodies[k], frame)
			members = append(members, frame...)
		}
		c.sd.YieldNamed("frame-reconcile") // schedule point: frame answered, not yet reconciled
		d, r, f, n := c.reconcileFrame(cl, members, nacked)
		delivered, removed, notes = delivered+d, removed+r, append(notes, n...)
		members = nil
		if f >= 0 {
			failAt = f
			break // the peer is unavailable: later frames would only repeat it
		}
	}

	c.sd.Yield() // schedule point: batch done, peer state not yet reconciled
	c.qmu.Lock()
	if removed > 0 {
		c.compactLocked()
	}
	if cl.cascade {
		c.cascadeInflight--
	}
	for _, p := range cl.ptrs {
		p.inflight = false // frames never sent go back uncharged
	}
	ps := c.peers[cl.peer]
	ps.inflight = false
	if failAt >= 0 {
		// Unreachable peers back off; their messages stay live. The outage
		// is tracked per peer (ps.failures), not charged to each message's
		// Attempts — otherwise a long outage would exhaust every message's
		// MaxAttempts budget and the first message-level failure after
		// recovery would park it instantly.
		ps.failures++
		ps.nextTry = c.now().Add(backoffDelay(ps.failures))
		if ps.failures >= MaxAttempts && !ps.notified {
			ps.notified = true
			failed := &cl.snap[failAt]
			notes = append(notes, Notification{
				Kind: "unreachable", Target: cl.peer, RepairType: string(failed.Msg.Kind),
				Detail: fmt.Sprintf("peer unreachable after %d attempts; retrying with backoff: %s", ps.failures, failed.LastErr),
			})
		}
	} else {
		// The peer is healthy and its batch reconciled: clear it to health.
		ps.failures = 0
		ps.nextTry = time.Time{}
		ps.notified = false
		// A fully healthy reconcile means any gap the peer NACKed has been
		// re-offered; stop stamping the recovery mark.
		c.vvClearReofferLocked(cl.peer)
	}
	// Delivery state is only meaningful while the peer still has messages.
	// While it does, the entry carries backoff and the adaptive batch limit
	// into the next claim; once drained (delivered, dropped or terminated)
	// drop it — the zero state is equivalent to no entry, so per-peer
	// bookkeeping (e.g. one-shot poll:// clients) cannot accumulate
	// forever, and the batch limit resets to the policy's idle floor.
	if !c.peerHasQueuedLocked(cl.peer) {
		delete(c.peers, cl.peer)
	}
	c.qmu.Unlock()

	for _, n := range notes {
		c.notify(n)
	}
	return delivered
}

// deliverFrame sends one frame of claimed messages to the batch's peer and
// records each carried message's status (and failure detail on its
// snapshot) and the request ID its answer named. Returns whether the peer
// NACKed a gap.
func (c *Controller) deliverFrame(cl *claimedBatch, body []byte, frame []int) (nacked bool) {
	c.sd.YieldNamed("frame-send") // schedule point: a claimed frame is about to go out
	// Span window around the wire call; pure clock reads either side, no
	// yields — instrumentation must not add schedule points.
	var start int64
	if c.met.reg != nil {
		start = c.now().UnixNano()
	}
	resps, nacked, err := c.sendFrame(cl.peer, body, len(frame))
	if c.met.reg != nil {
		end := c.now().UnixNano()
		c.met.deliverNS.ObserveNS(end - start)
		for _, i := range frame {
			if s := &cl.snap[i]; s.TraceID != "" {
				c.met.ring.Record(obs.Span{
					Wave: s.TraceID, Hop: s.TraceHop, Service: c.Svc.Name,
					Kind: obs.SpanDeliver, Subject: s.DeliveryID, Peer: cl.peer,
					StartNS: start, EndNS: end,
				})
			}
		}
	}
	for j, i := range frame {
		if err != nil {
			cl.snap[i].LastErr = err.Error()
			cl.st[i] = deliverRetry
			continue
		}
		cl.st[i] = replyStatus(&cl.snap[i], resps[j])
		cl.learned[i] = resps[j].Header[wire.HdrRequestID]
	}
	// Gap NACKs get their own labeled decision point.
	if nacked {
		c.sd.YieldNamed("vv-reoffer") // schedule point: peer NACKed a gap
	}
	return nacked
}

// reconcileFrame applies the outcomes of the given claimed messages — one
// frame's carriers, plus with the first frame the messages settled without
// a wire call — to their queue entries in one critical section, logged as
// ONE WAL entry: the request IDs the peer assigned (learned into the local
// call records), the q-del of every message delivered or gone, and the
// q-set of every message charged, held, or left with a fresh error. Svc.Mu
// is held for the learned IDs (local repair mutates log records in place
// under it) and qmu nests inside it; the entry's fsync runs after both are
// released. An outcome applies only to the generation it claimed: a message
// whose content was superseded mid-flight (collapse or Retry) stays queued,
// its reset LastErr preserved, so the newer content still goes out. Returns
// the messages delivered and removed, the first one whose peer was
// unavailable (-1 if none), and the notifications owed.
func (c *Controller) reconcileFrame(cl *claimedBatch, members []int, nacked bool) (delivered, removed, failAt int, notes []Notification) {
	failAt = -1
	fresh := make([]bool, len(members))
	held := make([]int, len(members)) // Attempts at which a message was parked
	c.Svc.Mu.Lock()
	c.walBegin("reconcile")
	c.learnRequestIDsLocked(cl, members)
	c.qmu.Lock()
	for j, i := range members {
		p, snap := cl.ptrs[i], &cl.snap[i]
		// live: still a queue entry (it may have been Dropped since it was
		// claimed). fresh: the delivered content is still the queued one.
		live := p.queued
		f := live && (p.Gen == cl.gens[i] || c.faults.UngatedReconcile)
		fresh[j] = f
		if live {
			// Tokens are per-response and deliberately reused across
			// attempts and content revisions.
			p.token = snap.token
			p.inflight = false
		}
		if f {
			p.LastErr = snap.LastErr
		}
		switch cl.st[i] {
		case deliverOK, deliverGone:
			if f {
				p.queued = false
				c.queueShrunkLocked()
				c.vvResolveLocked(cl.peer, p.DeliveryID)
				c.walEmitQDelLocked(p.MsgID, true)
				removed++
				if cl.st[i] == deliverOK {
					delivered++
				}
			}
		case deliverDenied:
			if f {
				p.Held = true
				c.walEmitQSetJoinLocked(p, true)
			}
		case deliverRetryMsg:
			// The peer is up but rejected this one message: charge it alone.
			if f {
				p.Attempts++
				if p.Attempts >= MaxAttempts {
					p.Held = true
					held[j] = p.Attempts
				}
				c.walEmitQSetJoinLocked(p, true)
			}
		case deliverRetry:
			// The peer is unavailable: the outage is charged to its backoff
			// (deliverBatch), never to the message's Attempts.
			if failAt < 0 {
				failAt = i
			}
			if f {
				c.walEmitQSetJoinLocked(p, true)
			}
		}
	}
	if nacked {
		// The peer answered with a gap NACK: it is alive and missing a
		// delivery we still hold. Clear its backoff window and mark the
		// vector for re-offer stamping so the next pass (woken here)
		// re-delivers immediately instead of waiting out the schedule.
		c.vvNackLocked(cl.peer)
	}
	c.qmu.Unlock()
	c.walCommit()
	c.Svc.Mu.Unlock()
	c.walSettle()

	for j, i := range members {
		snap := &cl.snap[i]
		// Reconcile span: the moment the claimed outcome was applied to the
		// queue entry. Subject stays the DeliveryID so obs.Waves can pair it
		// with the enqueue span for per-hop latency.
		if c.met.reg != nil && snap.TraceID != "" {
			recNS := c.now().UnixNano()
			c.met.ring.Record(obs.Span{
				Wave: snap.TraceID, Hop: snap.TraceHop, Service: c.Svc.Name,
				Kind: obs.SpanReconcile, Subject: snap.DeliveryID, Peer: cl.peer,
				StartNS: recNS, EndNS: recNS,
			})
		}
		// Superseded-in-flight content stays queued and goes out again:
		// only a fresh outcome is counted and reported, so stats match
		// queue accounting and the delivered count.
		if !fresh[j] {
			continue
		}
		switch cl.st[i] {
		case deliverOK:
			c.met.msgsDelivered.Inc()
			c.emit(EvMsgDelivered, snap.MsgID, "%s delivered to %s", snap.Msg.Kind, snap.Msg.Target)
		case deliverGone:
			c.met.msgsFailed.Inc()
			notes = append(notes, Notification{
				MsgID: snap.MsgID, Kind: "gone", Target: snap.Msg.Target, RepairType: string(snap.Msg.Kind),
				Detail: "peer reports the request's logs were garbage-collected; repair is permanently unavailable: " + snap.LastErr,
			})
		case deliverDenied:
			c.emit(EvMsgHeld, snap.MsgID, "%s to %s held: unauthorized", snap.Msg.Kind, snap.Msg.Target)
			notes = append(notes, Notification{
				MsgID: snap.MsgID, Kind: "unauthorized", Target: snap.Msg.Target, RepairType: string(snap.Msg.Kind),
				Detail: "peer rejected repair message as unauthorized; refresh credentials and Retry: " + snap.LastErr,
			})
		case deliverRetryMsg:
			if held[j] > 0 {
				// The peer is up; it rejected this one message. Distinct
				// from "unreachable" so the administrator debugs the
				// message, not connectivity.
				c.emit(EvMsgHeld, snap.MsgID, "%s to %s held: rejected after %d attempts", snap.Msg.Kind, snap.Msg.Target, held[j])
				notes = append(notes, Notification{
					MsgID: snap.MsgID, Kind: "rejected", Target: snap.Msg.Target, RepairType: string(snap.Msg.Kind),
					Detail: fmt.Sprintf("peer rejected this message %d times; message held for Retry: %s", held[j], snap.LastErr),
				})
			}
		}
	}
	return delivered, removed, failAt, notes
}

// learnRequestIDsLocked records the peer-assigned request IDs that
// delivered replace/create carriers were answered with, so future repairs
// can name the repaired or created request. The response-ID lookup is an
// O(1) index probe, and Update keeps the log's call indexes coherent with
// the learned ID. Caller holds Svc.Mu with the reconcile's WAL batch open.
func (c *Controller) learnRequestIDsLocked(cl *claimedBatch, members []int) {
	for _, i := range members {
		m := &cl.snap[i].Msg
		if cl.st[i] != deliverOK || m.CallRespID == "" || cl.learned[i] == "" {
			continue
		}
		if rec, k, ok := c.Svc.Log.FindByCallRespID(m.CallRespID); ok {
			id := cl.learned[i]
			_ = c.Svc.Log.Update(rec.ID, func(r *repairlog.Record) {
				r.Calls[k].RemoteReqID = id
			})
		}
	}
}

// queueShrunkLocked records one live entry leaving the queue and wakes
// WaitQueueEmpty waiters when the last one goes. Callers hold qmu.
func (c *Controller) queueShrunkLocked() {
	c.qlive--
	c.met.queueDepth.Set(int64(c.qlive))
	if c.qlive == 0 {
		c.qcond.Broadcast()
	}
}

// WaitQueueEmpty blocks until the outgoing queue has no live messages (held
// or not) or the timeout elapses, reporting whether it emptied. It is the
// race-free way to wait out the background pump — tests and shutdown paths
// use it instead of sleep-polling QueueLen.
func (c *Controller) WaitQueueEmpty(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	expired := false
	timer := time.AfterFunc(timeout, func() {
		c.qmu.Lock()
		expired = true
		c.qmu.Unlock()
		c.qcond.Broadcast()
	})
	defer timer.Stop()
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for c.qlive > 0 && !expired && time.Now().Before(deadline) {
		c.qcond.Wait()
	}
	return c.qlive == 0
}

// Flush delivers now: one synchronous pass over the outgoing queue that
// attempts every deliverable (not Held, not in flight) message, reporting
// how many were delivered and how many remain. It ignores every pump
// policy — BatchPolicy, Admission, and the retry window of a backing-off
// peer — so each Flush makes one attempt per unreachable peer.
// Batches are delivered serially in queue order, so Flush (and Settle on
// top of it) is deterministic. Messages to unavailable peers stay queued
// (§3: asynchronous repair); messages refused as unauthorized or
// permanently unavailable are parked or dropped with an application
// notification.
func (c *Controller) Flush() (delivered, remaining int) {
	for _, cl := range c.claimBatches(nil, false) {
		delivered += c.deliverBatch(cl)
	}
	return delivered, c.QueueLen()
}

// Settle drives the given controllers synchronously until the system
// quiesces or maxRounds rounds elapse, returning the number of productive
// rounds. Each round runs one Flush per controller in the given order;
// Settle returns at the first round that delivers nothing. Because Flush ignores retry windows, a peer that comes back
// online is delivered to on the next round — Settle never stops early
// because a reachable peer is still backing off.
func Settle(maxRounds int, ctrls ...*Controller) int {
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		progressed := false
		for _, c := range ctrls {
			if d, _ := c.Flush(); d > 0 {
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return rounds
}

// releaseBatches hands claimed-but-undispatched batches back to the queue:
// entries and peers are marked not-inflight so a later pass (or Flush) can
// claim them again. Used when the pump shuts down while waiting for a
// worker slot.
func (c *Controller) releaseBatches(batches []*claimedBatch) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for _, cl := range batches {
		for _, p := range cl.ptrs {
			p.inflight = false
		}
		if ps := c.peers[cl.peer]; ps != nil {
			ps.inflight = false
		}
		if cl.cascade {
			c.cascadeInflight--
		}
	}
}

// wakePump nudges the background pump (non-blocking; no-op when the pump is
// not running). Callers may hold qmu: the pacer's Wake latches a flag (or
// does a non-blocking buffered send) and never blocks.
func (c *Controller) wakePump() {
	c.pumpMu.Lock()
	pacer := c.pumpPacer
	c.pumpMu.Unlock()
	if pacer != nil {
		pacer.Wake()
	}
}

// StartPump launches the background repair pump: a goroutine that delivers
// the outgoing queue continuously — on every enqueue, Retry, and every
// pumpInterval for backoff retries — fanning deliveries to distinct peers
// out over pumpWorkers concurrent workers while preserving per-peer FIFO
// order; each claimed batch goes out as frames (deliverBatch). The pump runs until ctx is cancelled or StopPump
// is called; either way the controller can StartPump again afterwards. It
// returns an error if the pump is already running.
func (c *Controller) StartPump(ctx context.Context) error {
	c.pumpMu.Lock()
	defer c.pumpMu.Unlock()
	if c.pumpCancel != nil {
		return fmt.Errorf("core: pump already running on %s", c.Svc.Name)
	}
	ctx, cancel := context.WithCancel(ctx)
	c.pumpCancel = cancel
	done := make(chan struct{})
	c.pumpDone = done
	pacer := c.sd.NewPacer(pumpInterval)
	c.pumpPacer = pacer
	c.sd.Go("pump:"+c.Svc.Name, func() { c.pumpLoop(ctx, done, pacer) })
	return nil
}

// StopPump stops the background pump and waits for in-flight deliveries to
// reconcile. It is a no-op if the pump is not running.
func (c *Controller) StopPump() {
	c.pumpMu.Lock()
	cancel, done := c.pumpCancel, c.pumpDone
	c.pumpCancel, c.pumpDone, c.pumpPacer = nil, nil, nil
	c.pumpMu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}

// PumpRunning reports whether the background pump is active.
func (c *Controller) PumpRunning() bool {
	c.pumpMu.Lock()
	defer c.pumpMu.Unlock()
	return c.pumpCancel != nil
}

// StartPumps starts the background pump of every given controller and
// returns a stop function that shuts them all down again (waiting for
// in-flight deliveries to reconcile). If any pump fails to start — it is
// already running — the pumps started so far are stopped and the error
// returned.
func StartPumps(ctx context.Context, ctrls ...*Controller) (stop func(), err error) {
	for i, c := range ctrls {
		if err := c.StartPump(ctx); err != nil {
			for _, started := range ctrls[:i] {
				started.StopPump()
			}
			return nil, err
		}
	}
	return func() {
		for _, c := range ctrls {
			c.StopPump()
		}
	}, nil
}

// pumpLoop runs delivery passes continuously. Unlike Flush, a pass does
// not barrier on its batches: each claimed batch is handed to a worker
// slot and the loop immediately moves on, so one peer hanging for a full
// transport timeout cannot freeze delivery to other peers, periodic
// backoff retries, or StopPump's ability to decline further work. The
// per-peer and per-message inflight flags already make overlapping passes
// safe — claimBatches skips anything a slow worker still holds. StopPump
// still waits for workers holding claimed batches to reconcile.
//
// Every concurrency primitive comes from the controller's scheduler
// (Config.Sched): in production these are real goroutines, a channel
// semaphore, and a wall-clock ticker; under the deterministic simulator
// (internal/dsched) the same loop runs as a cooperative task whose worker
// interleavings and sleeps are chosen by a seeded schedule.
func (c *Controller) pumpLoop(ctx context.Context, done chan struct{}, pacer sched.Pacer) {
	wg := c.sd.NewGroup()
	defer func() {
		// Wait out in-flight deliveries so StopPump's "reconciled" promise
		// holds, then detach the lifecycle state so PumpRunning turns false
		// and StartPump works again without requiring a StopPump on an
		// already-dead pump. Detach before closing done: a waiter woken by
		// done must observe the pump as fully stopped.
		wg.Wait()
		pacer.Stop()
		c.pumpMu.Lock()
		if c.pumpDone == done {
			c.pumpCancel = nil
			c.pumpDone = nil
			c.pumpPacer = nil
		}
		c.pumpMu.Unlock()
		close(done)
	}()
	sem := c.sd.NewSem(pumpWorkers)
	for {
		c.sd.Yield() // schedule point: a pass is about to claim
		// Decide per-peer claim limits (adaptive batching) and admission
		// caps before claiming. Each decision sits at its own labeled yield
		// point, outside every lock, so the deterministic scheduler can
		// interleave enqueues, supersedes, and other pumps between the
		// snapshot and the claim that acts on it — the limits are advisory
		// caps, so any such race is benign.
		backlogs := c.peerBacklogs()
		c.sd.YieldNamed("batch-policy") // schedule point: batch sizes decided
		limits := c.batchLimits(backlogs)
		c.sd.YieldNamed("admission") // schedule point: admission caps about to apply
		batches := c.claimBatches(limits, true)
		for i, cl := range batches {
			if !sem.Acquire(ctx) {
				// Shutting down with every worker busy: hand the remaining
				// claims back so nothing is stranded inflight.
				c.releaseBatches(batches[i:])
				return
			}
			wg.Add(1)
			cl := cl
			c.sd.Go("worker:"+c.Svc.Name+"->"+cl.peer, func() {
				defer wg.Done()
				c.deliverBatch(cl)
				sem.Release()
				// Capacity freed and (likely) a peer drained: nudge the
				// loop so that peer's next FIFO batch goes out promptly.
				c.wakePump()
			})
		}
		if !pacer.Wait(ctx) {
			return
		}
	}
}
