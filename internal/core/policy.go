package core

// This file holds the pump's load-management policies: adaptive batch
// sizing (how many messages one pass claims for a peer) and sender-side
// admission control (how much of the delivery capacity repair cascades may
// consume while user-visible traffic is waiting). Every background pump
// pass applies both; Flush applies neither. Both are decided at claim
// time, between scheduler yield points, so the deterministic scheduler
// (internal/dsched) explores their interleavings like any other pump
// decision — see the "batch-policy" and "admission" labels in SchedTrace.

// defaultAdaptiveMax caps AdaptiveBatch when Max is unset. The adaptive
// policy only reaches it under sustained backlog, and shrinks back to Min
// as soon as the queue drains.
const defaultAdaptiveMax = 64

// AdaptiveBatch decides how many messages one background pump pass may
// claim for a single peer. It grows a peer's batch limit toward Max while
// backlog outruns the previous claim (doubling, so a burst reaches the cap
// in O(log) passes) and shrinks it to the observed backlog — down to Min —
// when the peer is draining or idle. Small batches keep latency low when
// the queue is short; large batches amortize per-pass claim/reconcile
// overhead when a repair cascade piles up behind one peer. The zero value
// means limits in [1, 64]; a fixed batch of n is AdaptiveBatch{Min: n,
// Max: n}.
type AdaptiveBatch struct {
	// Min is the smallest limit returned (default 1).
	Min int
	// Max caps the limit (default defaultAdaptiveMax).
	Max int
}

// bounds resolves the policy's limit range with defaults applied.
func (a AdaptiveBatch) bounds() (lo, hi int) {
	lo, hi = max(a.Min, 1), a.Max
	if hi < 1 {
		hi = defaultAdaptiveMax
	}
	return lo, max(hi, lo)
}

// Limit returns a peer's next claim limit. It is called outside any
// controller lock with a snapshot of the peer's backlog (live, deliverable
// messages bound for it) and the limit used by the peer's previous claim
// (0 when the peer has no retained delivery state — first contact, or
// fully drained since). The returned limit is advisory: the queue may have
// changed by the time the claim runs.
func (a AdaptiveBatch) Limit(backlog, prev int) int {
	lo, hi := a.bounds()
	prev = max(prev, lo)
	next := backlog // draining or idle: claim exactly what is there
	if backlog > prev {
		next = prev * 2 // backlog outran the last claim: grow toward the cap
	}
	return min(max(next, lo), hi)
}

// DefaultAdaptiveBatch returns the zero value's policy spelled out: limits
// in [1, 64].
func DefaultAdaptiveBatch() AdaptiveBatch { return AdaptiveBatch{Min: 1, Max: defaultAdaptiveMax} }

// Admission is sender-side admission control for the background pump: it
// bounds how much of the delivery capacity repair *cascades* (replace,
// delete, create carriers fanning out to peer services) may consume, so a
// repair storm degrades repair latency — never the latency of user-visible
// traffic. Two budgets compose, both enforced when a pass claims batches:
//
//   - MaxShare bounds the fraction of pump workers that may concurrently
//     carry cascade-class batches while response-class messages
//     (replace_response — the repaired answers flowing back toward clients)
//     are waiting in the queue. The reserved workers keep the user-visible
//     plane draining no matter how deep the cascade backlog is.
//
//   - Burst caps how many messages one pass claims for a peer that this
//     service currently has live (non-repair) outbound calls in flight to:
//     repair delivery trickles to a peer that is actively serving the
//     live workload instead of flooding its connection pool and lock.
//
// A zero field takes DefaultAdmission's value; admission always applies to
// background pump passes.
type Admission struct {
	// MaxShare is the maximum fraction of the pump's pumpWorkers (4)
	// workers cascade-class batches may occupy while response-class
	// messages are queued (default 0.75, so 3 workers; clamped so at least
	// one worker may always carry cascades).
	MaxShare float64
	// Burst is the per-pass claim cap for peers with live outbound calls in
	// flight (default 1).
	Burst int
}

// withDefaults fills zero fields with DefaultAdmission's values.
func (a Admission) withDefaults() Admission {
	if a.MaxShare <= 0 {
		a.MaxShare = 0.75
	}
	if a.Burst <= 0 {
		a.Burst = 1
	}
	return a
}

// DefaultAdmission returns the zero value's budgets spelled out: cascades
// may fill 3/4 of the workers while responses wait, and a peer with live
// traffic in flight receives one repair message per pass.
func DefaultAdmission() Admission { return Admission{}.withDefaults() }
