package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"aire/internal/deliver"
	"aire/internal/obs"
	"aire/internal/wal"
	"aire/internal/wire"
)

// This file is the controller's half of the anti-entropy version-vector
// layer (the dedup memory itself is deliver.Inbox). Every delivery ID the
// controller mints carries a sequence from the service's shared monotonic
// counter ("svc-dlv-N"), so for each destination peer the controller can
// announce, on every stamped carrier:
//
//   - Aire-Acked-Seq: the highest sequence S such that every delivery this
//     service ever addressed to the peer with sequence <= S has been
//     resolved (acknowledged, gone, or dropped). Sequences are sparse per
//     peer — other peers consume counter values in between — but that is
//     exactly what makes the announcement cheap: the acked prefix is
//     min(outstanding)-1, or the frontier when nothing is outstanding.
//   - Aire-Frontier-Seq: the highest sequence ever addressed to the peer.
//
// The receiver compacts dedup-inbox entries at or below the acked prefix
// (they can never be asked about again) and classifies arrivals with no
// entry exactly; it detects gaps — a wholly-lost delivery none of whose
// retries ever arrived — against the announced vector and answers with
// Aire-Nack-Seq on the response. A NACK makes the sender clear the peer's
// backoff window and stamp Aire-Reoffer on subsequent attempts: the
// anti-entropy path that recovers a lost delivery without waiting out the
// exponential backoff horizon.
//
// Sender vectors are derived state: outstanding sequences mirror the
// outgoing queue exactly (issued when a delivery ID enters the queue,
// resolved when its message permanently leaves), and the delivery counter
// is persisted, so crash-recovery rebuilds them from the replayed queue —
// no sender-side WAL op is needed, and a freshly minted sequence always
// announces an acked prefix covering everything resolved before the crash.
// Receiver vectors ARE persisted (deliver.OriginDump acked/frontier plus
// the in-vv WAL op) so compaction never forgets an unacked delivery.

// peerVector is the sender's vector state for one destination peer.
// Guarded by qmu, like the queue it mirrors.
type peerVector struct {
	// out holds the sequences of queued (unresolved) deliveries to the peer.
	out map[uint64]bool
	// frontier is the highest sequence ever issued to the peer.
	frontier uint64
	// reoffer is set when the peer NACKed a gap and cleared once a batch to
	// the peer reconciles fully healthy; while set, stamped carriers carry
	// wire.HdrReoffer so the transport fabric (and the simulator's lostwave
	// fault class) treats them as anti-entropy recovery traffic.
	reoffer bool
}

// vvIssueLocked records a delivery ID entering the queue bound for peer.
// Idempotent (out is a set), so WAL replay's q-set upserts are safe.
// Caller holds qmu.
func (c *Controller) vvIssueLocked(peer, deliveryID string) {
	seq := deliver.Seq(deliveryID)
	if seq == 0 {
		return
	}
	pv := c.vectors[peer]
	if pv == nil {
		pv = &peerVector{out: map[uint64]bool{}}
		c.vectors[peer] = pv
	}
	pv.out[seq] = true
	if seq > pv.frontier {
		pv.frontier = seq
	}
}

// vvResolveLocked records a delivery permanently leaving the queue
// (delivered, gone, or dropped), advancing the peer's acked prefix.
// Caller holds qmu.
func (c *Controller) vvResolveLocked(peer, deliveryID string) {
	seq := deliver.Seq(deliveryID)
	if seq == 0 {
		return
	}
	if pv := c.vectors[peer]; pv != nil {
		delete(pv.out, seq)
	}
}

// vvAnnouncement computes the (acked, frontier, reoffer) triple to stamp on
// a carrier bound for peer. ok is false when nothing was ever issued to the
// peer — the carrier then announces nothing, so a receiver never sees a
// zero vector it might misread as "everything below my sequence is acked".
//
// Re-offer stamping has two triggers. The fast one is a peer NACK
// (pv.reoffer): the receiver proved it is missing a delivery, so the very
// next attempt is marked recovery traffic. The slow one is the sender's own
// backoff horizon: once the peer's consecutive transport failures cross
// [MaxAttempts], every carrier is stamped a re-offer unilaterally — the
// sender cannot distinguish an unreachable peer from a transport silently
// discarding this delivery's every retry, and a lost delivery at the head
// of the per-peer FIFO blocks the later carriers whose announcements would
// have revealed its gap, so no NACK can arrive to trigger the fast path.
func (c *Controller) vvAnnouncement(peer string) (acked, frontier uint64, reoffer, ok bool) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	pv := c.vectors[peer]
	if pv == nil || pv.frontier == 0 {
		return 0, 0, false, false
	}
	acked, reoffer = c.vvStateLocked(peer, pv)
	return acked, pv.frontier, reoffer && !c.faults.SuppressReoffer, true
}

// vvStateLocked derives what the next carrier to peer announces: the acked
// prefix (min(outstanding)-1, or the frontier when nothing is outstanding)
// and whether it is stamped a re-offer. Caller holds qmu.
func (c *Controller) vvStateLocked(peer string, pv *peerVector) (acked uint64, reoffer bool) {
	acked = pv.frontier
	for seq := range pv.out {
		if seq <= acked {
			acked = seq - 1
		}
	}
	reoffer = pv.reoffer
	if ps := c.peers[peer]; !reoffer && ps != nil && ps.failures >= MaxAttempts {
		reoffer = true
	}
	return acked, reoffer
}

// vvNackLocked reacts to a peer's gap NACK: the peer proved it is alive
// and missing a delivery, so waiting out the backoff window would only
// delay recovery. Clear the window, mark the vector for re-offer stamping,
// and nudge the pump. Caller holds qmu.
func (c *Controller) vvNackLocked(peer string) {
	pv := c.vectors[peer]
	if pv == nil {
		return
	}
	pv.reoffer = true
	if ps := c.peers[peer]; ps != nil {
		ps.failures = 0
		ps.nextTry = time.Time{}
		ps.notified = false
	}
	c.met.vvReoffers.Inc()
	c.wakePump()
}

// vvClearReofferLocked drops the re-offer mark after a fully healthy batch
// reconcile — the gap the peer reported has been re-delivered (or resolved
// another way), so subsequent carriers go back to normal stamping. Caller
// holds qmu.
func (c *Controller) vvClearReofferLocked(peer string) {
	if pv := c.vectors[peer]; pv != nil {
		pv.reoffer = false
	}
}

// ---- receive side ----------------------------------------------------------

// verifyCarrierBody checks a frame's body checksum (wire.HdrBodySum, stamped
// by sendFrame on every frame; a lone carrier may carry one too).
// A mismatch means the body was corrupted in flight; the delivery is
// refused loudly and retryably (503 → the sender backs the peer off and a
// retry re-sends clean bytes) instead of being silently misapplied.
func (c *Controller) verifyCarrierBody(req wire.Request) *wire.Response {
	sum := req.Header[wire.HdrBodySum]
	if sum == "" || sum == wire.BodySum(req.Body) {
		return nil
	}
	c.met.corruptRejects.Inc()
	c.spanInboxVerdict(req, req.Header[wire.HdrDeliveryID], "corrupt")
	resp := wire.NewResponse(503, "aire: carrier body checksum mismatch; retry")
	return &resp
}

// observeCarrierVector feeds a frame's announced version vector into the
// dedup inbox, once per frame: compaction of the acked prefix, monotonic
// vector advance, and gap detection against the span of sequences the frame
// carries. The advance is returned as an in-vv op for the frame's WAL entry
// (recovery must never regress below a compaction), and a gap as the first
// sequence believed missing (0: no NACK) — never one the frame carries.
// Carriers already refused are left out: nothing about them is observed.
//
// The announcement is untrusted outside input and is what classification
// rests on, so it is validated before anything is observed or persisted: a
// frame carrying an identified delivery but announcing nothing, an
// announcement that does not parse, and one whose acked prefix exceeds its
// frontier are all refused with 400 (bad non-nil).
func (c *Controller) observeCarrierVector(from string, outer wire.Request, cs []inCarrier) (missing uint64, vv []wal.Op, bad *wire.Response) {
	if c.faults.DisableDedup {
		return 0, nil, nil
	}
	origin := from
	if origin == "" {
		origin = outer.Header[wire.HdrOrigin]
	}
	var lo, hi uint64
	live, id := false, ""
	for i := range cs {
		if cs[i].resp != nil {
			continue
		}
		live = true
		if s := deliver.Seq(cs[i].req.Header[wire.HdrDeliveryID]); s > 0 {
			if lo == 0 || s < lo {
				lo, id = s, cs[i].req.Header[wire.HdrDeliveryID]
			}
			hi = max(hi, s)
		}
	}
	if origin == "" || !live {
		return 0, nil, nil
	}
	ackedHdr, frontierHdr := outer.Header[wire.HdrAckedSeq], outer.Header[wire.HdrFrontierSeq]
	if ackedHdr == "" && frontierHdr == "" {
		if lo == 0 {
			return 0, nil, nil // locally issued or sequence-less: nothing to observe
		}
		return 0, nil, c.refuseVector(outer, id, "identified delivery carries no "+wire.HdrAckedSeq+"/"+wire.HdrFrontierSeq+" announcement")
	}
	acked, errA := strconv.ParseUint(ackedHdr, 10, 64)
	frontier, errF := strconv.ParseUint(frontierHdr, 10, 64)
	if errA != nil || errF != nil || acked > frontier {
		return 0, nil, c.refuseVector(outer, id, fmt.Sprintf("malformed version vector (%s=%q %s=%q)",
			wire.HdrAckedSeq, ackedHdr, wire.HdrFrontierSeq, frontierHdr))
	}
	vo := c.dedup.ObserveVector(origin, acked, frontier, lo, hi)
	if vo.Compacted > 0 {
		c.met.vvCompacted.Add(int64(vo.Compacted))
	}
	if vo.Advanced && c.walAttached() {
		vv = []wal.Op{mustOp("in-vv", inVVOp{Origin: origin, Acked: acked, Frontier: frontier})}
	}
	if vo.Gap {
		c.met.vvGapNacks.Inc()
		c.spanVVGap(outer, origin, vo.Missing)
		return vo.Missing, vv, nil
	}
	return 0, vv, nil
}

// refuseVector answers a carrier whose version-vector announcement cannot
// be trusted: 400, nothing observed, nothing logged to the WAL.
func (c *Controller) refuseVector(req wire.Request, id, why string) *wire.Response {
	c.spanInboxVerdict(req, id, "malformed")
	resp := wire.NewResponse(400, "aire: "+why)
	return &resp
}

// spanVVGap records one gap-detection span, correlated to the carrier's
// wave. No-op with obs disabled.
func (c *Controller) spanVVGap(req wire.Request, origin string, missing uint64) {
	if c.met.reg == nil {
		return
	}
	tc := traceFromCarrier(req)
	now := c.now().UnixNano()
	c.met.ring.Record(obs.Span{
		Wave: tc.wave, Hop: tc.hop, Service: c.Svc.Name,
		Kind: obs.SpanInbox, Subject: "gap-nack", Peer: origin + "#" + strconv.FormatUint(missing, 10),
		StartNS: now, EndNS: now,
	})
}

// InboxHighWater reports the dedup inbox's high-water entry count — the
// compaction memory bound the vector tests assert on.
func (c *Controller) InboxHighWater() int { return c.dedup.HighWater() }

// PeerVectorDump is one destination peer's sender-side vector state as seen
// by debug surfaces (aireserve's /aire/debug/vectors).
type PeerVectorDump struct {
	Peer string `json:"peer"`
	// Acked is the prefix the next carrier to the peer would announce.
	Acked uint64 `json:"acked"`
	// Frontier is the highest sequence ever issued to the peer.
	Frontier uint64 `json:"frontier"`
	// Outstanding counts queued (unresolved) deliveries to the peer.
	Outstanding int `json:"outstanding"`
	// Reoffer reports that the next carriers will be stamped as
	// anti-entropy recovery traffic (peer NACK or backoff horizon).
	Reoffer bool `json:"reoffer"`
}

// VectorDump snapshots the sender-side version vectors for every peer,
// sorted by peer name.
func (c *Controller) VectorDump() []PeerVectorDump {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	names := make([]string, 0, len(c.vectors))
	for name := range c.vectors {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]PeerVectorDump, 0, len(names))
	for _, name := range names {
		pv := c.vectors[name]
		acked, reoffer := c.vvStateLocked(name, pv)
		out = append(out, PeerVectorDump{
			Peer: name, Acked: acked, Frontier: pv.frontier,
			Outstanding: len(pv.out), Reoffer: reoffer,
		})
	}
	return out
}
