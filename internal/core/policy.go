package core

// This file holds the pump's load-management policies: batch sizing (how
// many messages one pass claims for a peer) and sender-side
// admission control (how much of the delivery capacity repair cascades may
// consume while user-visible traffic is waiting). Every background pump
// pass applies both; Flush applies neither. Both are decided at claim
// time, between scheduler yield points, so the deterministic scheduler
// (internal/dsched) explores their interleavings like any other pump
// decision — see the "batch-policy" and "admission" labels in SchedTrace.

// defaultAdaptiveMax caps AdaptiveBatch when Max is unset: one pass claims
// at most this many messages for a peer.
const defaultAdaptiveMax = 64

// AdaptiveBatch decides how many messages one background pump pass may
// claim for a single peer: the peer's whole deliverable backlog, clamped
// to [Min, Max]. A short queue already makes a small claim, so there is
// no ramp: a repair wave's carriers to one peer cross the hop in one frame
// (one round trip, one peer fsync, one reconcile) until the backlog
// exceeds Max. When cascades must trickle is Admission's decision, not
// this policy's. The zero value means limits in [1, 64]; a fixed batch of
// n is AdaptiveBatch{Min: n, Max: n}.
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
// messages bound for it). The returned limit is advisory: the queue may
// have changed by the time the claim runs.
func (a AdaptiveBatch) Limit(backlog int) int {
	lo, hi := a.bounds()
	return min(max(backlog, lo), hi)
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
//     service currently has live (non-repair) outbound calls in flight to,
//     and how many cascade-class messages one pass claims for any peer
//     while response-class messages are waiting: repair delivery trickles
//     to a peer that is actively serving the live workload instead of
//     flooding its connection pool and lock, and a cascade frame never
//     holds a worker for a whole backlog while a repaired answer waits.
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
	// flight, and for cascade-class claims while response-class messages
	// are waiting (default 1).
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
// may fill 3/4 of the workers while responses wait, a cascade claim takes
// one message per pass while responses wait, and a peer with live traffic
// in flight receives one repair message per pass.
func DefaultAdmission() Admission { return Admission{}.withDefaults() }
