package core

import (
	"fmt"
	"sort"
	"strconv"

	"aire/internal/deliver"
	"aire/internal/obs"
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
//
// A sender vector is three fields of the destination's record (dest, in
// queue.go), guarded by q.mu like the queue it mirrors: linking an entry
// issues its sequence, unlinking it resolves the sequence.

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
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	d := c.q.dest(peer)
	if d.frontier == 0 {
		return 0, 0, false, false
	}
	acked, reoffer = d.vvState()
	return acked, d.frontier, reoffer && !c.faults.SuppressReoffer, true
}

// vvState derives what the next carrier to the destination announces: the
// acked prefix (min(outstanding)-1, or the frontier when nothing is
// outstanding) and whether it is stamped a re-offer. Caller holds q.mu.
func (d *dest) vvState() (acked uint64, reoffer bool) {
	acked = d.frontier
	for seq := range d.out {
		if seq <= acked {
			acked = seq - 1
		}
	}
	return acked, d.reoffer || d.failures >= MaxAttempts
}

// vvNackLocked reacts to a peer's gap NACK: the peer proved it is alive
// and missing a delivery, so waiting out the backoff window would only
// delay recovery. Clear the window, mark the vector for re-offer stamping,
// and nudge the pump. The mark is dropped after the next fully healthy
// batch reconcile (deliverBatch). Caller holds q.mu.
func (c *Controller) vvNackLocked(peer string) {
	d := c.q.dest(peer)
	d.reoffer = true
	d.resetHealth()
	c.met.vvReoffers.Inc()
	c.wakePump()
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
func (c *Controller) observeCarrierVector(from string, outer wire.Request, cs []inCarrier) (missing uint64, vv *inVVOp, bad *wire.Response) {
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
		vv = &inVVOp{Origin: origin, Acked: acked, Frontier: frontier}
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
// sorted by peer name. A destination that was only ever named by live
// calls has no vector (vvAnnouncement announces none) and is left out.
func (c *Controller) VectorDump() []PeerVectorDump {
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	names := make([]string, 0, len(c.q.dests))
	for name, d := range c.q.dests {
		if d.frontier > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]PeerVectorDump, 0, len(names))
	for _, name := range names {
		d := c.q.dests[name]
		acked, reoffer := d.vvState()
		out = append(out, PeerVectorDump{
			Peer: name, Acked: acked, Frontier: d.frontier,
			Outstanding: len(d.out), Reoffer: reoffer,
		})
	}
	return out
}
