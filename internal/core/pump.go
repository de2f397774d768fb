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
//   - Claim/reconcile. A delivery pass claims messages under q.mu, sends the
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
// A background pump pass honors every pump policy: the batch limits
// (each peer's whole backlog, up to the policy's Max), admission, and the
// retry window. Flush is "deliver now": one synchronous pass that ignores
// them all, delivering every deliverable message in queue order —
// deterministic, for tests and Settle. StartPump runs passes continuously
// with a bounded worker pool, fanning batches out to distinct peers
// concurrently.

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
	ptrs []*PendingMsg // live queue entries (reconciled under q.mu)
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
	c.q.mu.Lock()
	c.q.dest(peer).liveCalls++
	c.q.mu.Unlock()
}

func (c *Controller) endLiveCall(peer string) {
	c.q.mu.Lock()
	c.q.dest(peer).liveCalls--
	c.q.mu.Unlock()
}

// peerBacklogs snapshots, for every peer with deliverable messages, how
// many are queued for it — the input the batch policy sizes the next claim
// from. Skipped peers (in-flight batch, backing off) are included: their
// limits are computed but unused this pass, which keeps the snapshot cheap
// and the policy stateless.
func (c *Controller) peerBacklogs() map[string]int {
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	m := map[string]int{}
	c.q.claimable(func(p *PendingMsg) { m[p.peer]++ })
	return m
}

// batchLimits asks the batch policy for a per-peer claim limit. Called
// with no locks held — the limits are advisory caps applied at claim time,
// not a reservation.
func (c *Controller) batchLimits(backlogs map[string]int) map[string]int {
	limits := make(map[string]int, len(backlogs))
	for peer, n := range backlogs {
		limits[peer] = c.Cfg.BatchPolicy.Limit(n)
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
// capped at Admission.Burst, and while response-class messages are
// waiting a cascade-class claim is capped at Admission.Burst too and a new
// cascade-class batch is skipped entirely once the cascade worker budget
// is exhausted. Batches are returned in queue order of their first
// message.
func (c *Controller) claimBatches(limits map[string]int, pumpPass bool) []*claimedBatch {
	now := c.now()
	adm := c.Cfg.Admission.withDefaults()
	admit := pumpPass && !c.faults.NoAdmission
	// At least one worker may always carry cascades, so they make progress.
	maxCascade := max(int(adm.MaxShare*float64(pumpWorkers)), 1)
	floor, _ := c.Cfg.BatchPolicy.bounds()
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	// The MaxShare budget only bites while user-visible (response-class)
	// messages are actually waiting; one pre-pass answers that.
	respWaiting := false
	if admit {
		c.q.claimable(func(p *PendingMsg) {
			respWaiting = respWaiting || p.Msg.Kind == warp.OutReplaceResponse
		})
	}
	var order []*claimedBatch
	byPeer := map[string]*claimedBatch{}
	skipPeer := map[string]bool{}
	c.q.claimable(func(p *PendingMsg) {
		peer := p.peer
		if skipPeer[peer] {
			return
		}
		cl, ok := byPeer[peer]
		if !ok {
			d := c.q.dest(peer)
			if d.inflight || (pumpPass && now.Before(d.nextTry)) {
				skipPeer[peer] = true
				return
			}
			cascade := p.Msg.Kind != warp.OutReplaceResponse
			if admit && cascade && respWaiting && c.q.cascadeInflight >= maxCascade {
				// Cascade budget exhausted while responses wait: leave this
				// peer for a later pass so the reserved workers stay free
				// for the user-visible plane.
				skipPeer[peer] = true
				return
			}
			l := 0 // Flush: unbounded
			if pumpPass {
				l = floor
				if pl, ok := limits[peer]; ok {
					l = pl
				}
			}
			if admit && (d.liveCalls > 0 || cascade && respWaiting) {
				// The peer is serving our live traffic right now, or a
				// repaired answer is waiting for a worker: trickle.
				l = min(l, adm.Burst)
			}
			d.inflight = true
			if cascade && admit {
				c.q.cascadeInflight++
			}
			cl = &claimedBatch{peer: peer, limit: l, cascade: cascade && admit}
			byPeer[peer] = cl
			order = append(order, cl)
		}
		if cl.limit == 0 || len(cl.ptrs) < cl.limit {
			p.inflight = true
			cl.ptrs = append(cl.ptrs, p)
			cl.snap = append(cl.snap, *p)
			cl.gens = append(cl.gens, p.Gen)
		}
	})
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

// deliverBatch delivers one claimed batch as frames and reconciles each
// frame's outcomes. A pump pass's claim is bounded by its batch limit
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
// delivered.
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
	failAt := -1
	for k := 0; k == 0 || k < len(bodies); k++ {
		nacked := false
		if k < len(bodies) {
			frame := sent[:counts[k]]
			sent = sent[counts[k]:]
			nacked = c.deliverFrame(cl, bodies[k], frame)
			members = append(members, frame...)
		}
		c.sd.YieldNamed("frame-reconcile") // schedule point: frame answered, not yet reconciled
		d, f, n := c.reconcileFrame(cl, members, nacked)
		delivered, notes = delivered+d, append(notes, n...)
		members = nil
		if f >= 0 {
			failAt = f
			break // the peer is unavailable: later frames would only repeat it
		}
	}

	c.sd.Yield() // schedule point: batch done, peer state not yet reconciled
	c.q.mu.Lock()
	d := c.q.release(cl) // frames never sent go back uncharged
	if failAt >= 0 {
		// Unreachable peers back off; their messages stay live. The outage
		// is tracked per peer (d.failures), not charged to each message's
		// Attempts — otherwise a long outage would exhaust every message's
		// MaxAttempts budget and the first message-level failure after
		// recovery would park it instantly.
		d.failures++
		d.nextTry = c.now().Add(backoffDelay(d.failures))
		if d.failures >= MaxAttempts && !d.notified {
			d.notified = true
			failed := &cl.snap[failAt]
			notes = append(notes, Notification{
				Kind: "unreachable", Target: cl.peer, RepairType: string(failed.Msg.Kind),
				Detail: fmt.Sprintf("peer unreachable after %d attempts; retrying with backoff: %s", d.failures, failed.LastErr),
			})
		}
	} else {
		// The peer is healthy and its batch reconciled: clear it to health.
		// A fully healthy reconcile also means any gap the peer NACKed has
		// been re-offered; stop stamping the recovery mark.
		d.resetHealth()
		d.reoffer = false
	}
	// Delivery health is only meaningful while the peer still has
	// messages: it carries backoff into the next claim. A drained peer
	// (delivered, dropped or terminated) goes back to a fresh record's
	// health. The record itself is kept, vector and all, for every
	// destination ever named — one-shot poll:// clients included.
	if len(d.out) == 0 {
		d.resetHealth()
	}
	c.q.mu.Unlock()

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
// under it) and q.mu nests inside it; the entry's fsync runs after both are
// released. An outcome applies only to the generation it claimed: a message
// whose content was superseded mid-flight (collapse or Retry) stays queued,
// its reset LastErr preserved, so the newer content still goes out. Returns
// the messages delivered, the first one whose peer was unavailable (-1 if
// none), and the notifications owed.
func (c *Controller) reconcileFrame(cl *claimedBatch, members []int, nacked bool) (delivered, failAt int, notes []Notification) {
	failAt = -1
	fresh := make([]bool, len(members))
	held := make([]int, len(members)) // Attempts at which a message was parked
	c.commit("reconcile", func() {
		c.learnRequestIDsLocked(cl, members)
		c.q.mu.Lock()
		defer c.q.mu.Unlock()
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
					c.dequeueLocked(p)
					if cl.st[i] == deliverOK {
						delivered++
					}
				}
			case deliverDenied:
				if f {
					p.Held = true
					c.walEmitQSetLocked(p)
				}
			case deliverRetryMsg:
				// The peer is up but rejected this one message: charge it alone.
				if f {
					p.Attempts++
					if p.Attempts >= MaxAttempts {
						p.Held = true
						held[j] = p.Attempts
					}
					c.walEmitQSetLocked(p)
				}
			case deliverRetry:
				// The peer is unavailable: the outage is charged to its backoff
				// (deliverBatch), never to the message's Attempts.
				if failAt < 0 {
					failAt = i
				}
				if f {
					c.walEmitQSetLocked(p)
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
	})

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
		case deliverGone:
			c.met.msgsFailed.Inc()
			notes = append(notes, Notification{
				DeliveryID: snap.DeliveryID, Kind: "gone", Target: snap.Msg.Target, RepairType: string(snap.Msg.Kind),
				Detail: "peer reports the request's logs were garbage-collected; repair is permanently unavailable: " + snap.LastErr,
			})
		case deliverDenied:
			notes = append(notes, Notification{
				DeliveryID: snap.DeliveryID, Kind: "unauthorized", Target: snap.Msg.Target, RepairType: string(snap.Msg.Kind),
				Detail: "peer rejected repair message as unauthorized; refresh credentials and Retry: " + snap.LastErr,
			})
		case deliverRetryMsg:
			if held[j] > 0 {
				// The peer is up; it rejected this one message. Distinct
				// from "unreachable" so the administrator debugs the
				// message, not connectivity.
				notes = append(notes, Notification{
					DeliveryID: snap.DeliveryID, Kind: "rejected", Target: snap.Msg.Target, RepairType: string(snap.Msg.Kind),
					Detail: fmt.Sprintf("peer rejected this message %d times; message held for Retry: %s", held[j], snap.LastErr),
				})
			}
		}
	}
	return delivered, failAt, notes
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

// releaseBatches hands claimed-but-undispatched batches back to the queue
// (outQueue.release). Used when the pump shuts down while waiting for a
// worker slot.
func (c *Controller) releaseBatches(batches []*claimedBatch) {
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	for _, cl := range batches {
		c.q.release(cl)
	}
}

// wakePump nudges the background pump (non-blocking; no-op when the pump is
// not running). Callers may hold q.mu: the pacer's Wake latches a flag (or
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
		// Decide per-peer claim limits (batch policy) and admission
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
