// Package simnet is a deterministic fault-injection fabric for Aire
// simulation testing (FoundationDB-style): it wraps the in-memory transport
// bus and subjects the *repair plane* — every call under /aire/ — to
// seeded message drops, lost responses, duplicate deliveries, delayed and
// reordered deliveries, and network partitions.
//
// The paper's central claim (§3, §7) is that repair propagates correctly
// through an unreliable fabric. simnet turns that claim into a searchable
// seed space: every fault decision comes from a single rand.Rand seeded at
// construction, and one uniform draw is consumed per repair-plane call, so
// a run's entire fault schedule is a pure function of (seed, call
// sequence). Re-running a failing seed reproduces the identical schedule.
//
// Normal application traffic passes through unfaulted: the convergence
// oracle in internal/harness compares a faulted run against a fault-free
// reference re-execution, which is only meaningful when both worlds saw
// the same live workload and only the repair protocol rode the unreliable
// fabric.
package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"aire/internal/transport"
	"aire/internal/wire"
)

// FaultPlan sets per-call fault probabilities for repair-plane calls. The
// probabilities are cumulative and their sum must be ≤ 1; the remainder is
// the probability of clean delivery.
type FaultPlan struct {
	// Drop loses the call before it reaches the peer: the caller sees a
	// transport error, the peer sees nothing, the message stays queued.
	Drop float64
	// DropResponse delivers the call but loses the response: the caller
	// sees a transport error and will re-deliver a repair the peer already
	// applied — the at-least-once hazard the repair protocol must absorb.
	DropResponse float64
	// Duplicate delivers the call twice, returning the first response; the
	// duplicate's response vanishes.
	Duplicate float64
	// Delay holds the call for a later Tick (the caller sees a transport
	// error now, exactly like a timeout whose request is still sitting in
	// the network). Held calls are delivered in seeded-shuffled order, so
	// Delay is also the reordering fault.
	Delay float64
	// DelayTicks stretches Delay faults across simulated time: each
	// delayed call is held for a seeded 1..DelayTicks Ticks instead of
	// landing at the very next one (0 or 1 keeps the legacy next-Tick
	// behavior, and consumes no extra randomness). Multi-tick delays are
	// what let a copy of a since-superseded repair message land *after*
	// the sender's retries delivered the newer content — the
	// stale-redelivery hazard the wire generations exist for.
	DelayTicks int
	// Lost curses a delivery: the call AND every subsequent call carrying
	// the same wire.HdrDeliveryID is silently dropped for LostTicks Ticks
	// (a lost frame curses every delivery it carries, and a frame carrying
	// any cursed delivery is lost),
	// so the sender's backoff-driven retries cannot recover it — only the
	// anti-entropy path can: calls stamped wire.HdrReoffer (a re-offer the
	// sender issued after the receiver NACKed the sequence gap) pass the
	// curse. This is the fault class that separates "retries eventually
	// get through" from genuine lost-delivery detection.
	Lost float64
	// LostTicks bounds a curse's lifetime in Ticks; 0 curses the delivery
	// for the whole run, which is what the no-reoffer teeth check uses to
	// prove convergence stalls without anti-entropy.
	LostTicks int
	// Corrupt delivers the call with one body byte flipped (calls with
	// empty bodies pass clean). The receive path must detect the damage
	// via the carrier checksum (wire.HdrBodySum) and refuse it loudly —
	// silent misapply of a corrupted repair is the hazard.
	Corrupt float64
}

// Sum returns the total fault probability.
func (p FaultPlan) Sum() float64 {
	return p.Drop + p.DropResponse + p.Duplicate + p.Delay + p.Lost + p.Corrupt
}

// Fault class names, as recorded by Net.Counts and Net.Trace.
const (
	FaultDrop         = "drop"
	FaultDropResponse = "drop-response"
	FaultDuplicate    = "duplicate"
	FaultDelay        = "delay"
	FaultPartition    = "partition"
	FaultLost         = "lost"
	FaultCorrupt      = "corrupt"
)

// heldCall is a delayed repair-plane call awaiting Tick delivery.
type heldCall struct {
	from, to string
	req      wire.Request
	// ttl is how many further Ticks the call stays in the network; it is
	// delivered when it reaches zero (and its endpoints are unpartitioned).
	ttl int
}

// Net is a fault-injecting service fabric implementing the controller's
// Caller contract on top of a transport.Bus. Fault decisions are taken
// under an internal lock but deliveries run unlocked, so reentrant calls
// (the notify → fetch_repair handshake) cannot deadlock.
type Net struct {
	bus *transport.Bus

	mu     sync.Mutex
	rng    *rand.Rand
	plan   FaultPlan
	group  map[string]int // partition group per service; nil = healed
	held   []heldCall
	counts map[string]int
	trace  []string
	// tick counts Tick calls; curse expiries are measured against it.
	tick int
	// cursed maps a delivery ID hit by a Lost fault to the tick its curse
	// expires (-1 = never, FaultPlan.LostTicks == 0). While cursed, every
	// call carrying the ID is silently dropped unless it carries
	// wire.HdrReoffer.
	cursed map[string]int
}

// New wraps bus in a fault layer driven by the given seed and plan.
func New(bus *transport.Bus, seed int64, plan FaultPlan) *Net {
	if s := plan.Sum(); s > 1 {
		panic(fmt.Sprintf("simnet: fault probabilities sum to %v > 1", s))
	}
	return &Net{
		bus:    bus,
		rng:    rand.New(rand.NewSource(seed)),
		plan:   plan,
		counts: map[string]int{},
		cursed: map[string]int{},
	}
}

// RepairPath reports whether path belongs to the repair plane (the /aire/
// protocol surface). Only repair-plane calls are faulted.
func RepairPath(path string) bool { return strings.HasPrefix(path, "/aire/") }

// Call delivers req from → to, possibly injecting a fault when the call is
// repair-plane traffic.
func (n *Net) Call(from, to string, req wire.Request) (wire.Response, error) {
	if !RepairPath(req.Path) {
		return n.bus.Call(from, to, req)
	}

	n.mu.Lock()
	if n.partitionedLocked(from, to) {
		n.noteLocked(FaultPartition, from, to, req.Path)
		n.mu.Unlock()
		return wire.Response{}, fmt.Errorf("%w: simnet: %s->%s partitioned", transport.ErrUnavailable, from, to)
	}
	// The roll happens unconditionally — one draw per repair-plane call,
	// cursed or not — so a curse changes outcomes without shifting the rng
	// sequence every later fault decision depends on.
	fault := n.rollLocked()
	if ids := deliveryIDs(req); len(ids) > 0 {
		if fault == FaultLost {
			exp := -1 // whole-run curse
			if n.plan.LostTicks > 0 {
				exp = n.tick + n.plan.LostTicks
			}
			for _, id := range ids {
				n.cursed[id] = exp
			}
		} else if n.anyCursedLocked(ids) {
			if req.Header[wire.HdrReoffer] != "" {
				// Anti-entropy re-offer: the only traffic that passes the
				// curse. Whatever the roll said happens to it normally.
				for _, id := range ids {
					delete(n.cursed, id)
				}
			} else {
				fault = FaultLost // a retry of a lost delivery: still lost
			}
		}
	}
	if fault != "" {
		n.noteLocked(fault, from, to, req.Path)
	}
	if fault == FaultDelay {
		ttl := 1
		if n.plan.DelayTicks > 1 {
			ttl = 1 + n.rng.Intn(n.plan.DelayTicks)
		}
		n.held = append(n.held, heldCall{from: from, to: to, req: req.Clone(), ttl: ttl})
	}
	n.mu.Unlock()

	switch fault {
	case FaultDrop, FaultDelay, FaultLost:
		return wire.Response{}, fmt.Errorf("%w: simnet: %s %s->%s %s", transport.ErrUnavailable, fault, from, to, req.Path)
	case FaultDropResponse:
		n.bus.Call(from, to, req) // delivered; the response is lost
		return wire.Response{}, fmt.Errorf("%w: simnet: %s %s->%s %s", transport.ErrUnavailable, fault, from, to, req.Path)
	case FaultDuplicate:
		resp, err := n.bus.Call(from, to, req)
		n.bus.Call(from, to, req.Clone()) // the duplicate; its response vanishes
		return resp, err
	case FaultCorrupt:
		return n.bus.Call(from, to, corruptBody(req))
	default:
		return n.bus.Call(from, to, req)
	}
}

// deliveryIDs lists the deliveries a repair-plane call carries: every
// carrier of a frame, or the lone carrier's own.
func deliveryIDs(req wire.Request) []string {
	if req.Path != wire.FramePath {
		if id := req.Header[wire.HdrDeliveryID]; id != "" {
			return []string{id}
		}
		return nil
	}
	carriers, err := wire.DecodeFrame(req.Body)
	if err != nil {
		return nil
	}
	var ids []string
	for _, c := range carriers {
		if id := c.Header[wire.HdrDeliveryID]; id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// anyCursedLocked reports whether any of the delivery IDs is cursed (every
// one is checked, so expired curses are all swept).
func (n *Net) anyCursedLocked(ids []string) bool {
	cursed := false
	for _, id := range ids {
		if n.cursedLocked(id) {
			cursed = true
		}
	}
	return cursed
}

// cursedLocked reports whether a delivery ID's curse is still active.
func (n *Net) cursedLocked(id string) bool {
	exp, ok := n.cursed[id]
	if !ok {
		return false
	}
	if exp >= 0 && n.tick >= exp {
		delete(n.cursed, id)
		return false
	}
	return true
}

// corruptBody flips one body byte (position derived from the content, so
// the damage is deterministic without consuming an rng draw). Calls with
// empty bodies pass through untouched.
func corruptBody(req wire.Request) wire.Request {
	if len(req.Body) == 0 {
		return req
	}
	c := req.Clone()
	sum := 0
	for _, b := range c.Body {
		sum += int(b)
	}
	c.Body[sum%len(c.Body)] ^= 0xFF
	return c
}

// rollLocked consumes exactly one uniform draw and maps it to a fault class
// ("" for clean delivery).
func (n *Net) rollLocked() string {
	p := n.plan
	if p.Sum() == 0 {
		return ""
	}
	r := n.rng.Float64()
	switch {
	case r < p.Drop:
		return FaultDrop
	case r < p.Drop+p.DropResponse:
		return FaultDropResponse
	case r < p.Drop+p.DropResponse+p.Duplicate:
		return FaultDuplicate
	case r < p.Drop+p.DropResponse+p.Duplicate+p.Delay:
		return FaultDelay
	case r < p.Drop+p.DropResponse+p.Duplicate+p.Delay+p.Lost:
		return FaultLost
	case r < p.Sum():
		return FaultCorrupt
	}
	return ""
}

// Tick delivers every due held (delayed) call in seeded-shuffled order and
// returns how many it delivered. The simulation loop calls Tick once per
// step; a delayed message therefore lands after whatever traffic and
// retries the intervening steps produced — the reordering fault. With
// FaultPlan.DelayTicks > 1, a call can stay in the network across several
// Ticks while the sender's retries (and newer, superseding content) go
// through. Held calls whose endpoints are currently partitioned stay held
// without aging: a partition is airtight for repair traffic, including
// traffic delayed before it started, until Heal.
func (n *Net) Tick() int {
	n.mu.Lock()
	n.tick++ // curse lifetimes (FaultPlan.LostTicks) age per Tick
	var batch, keep []heldCall
	for _, h := range n.held {
		if n.partitionedLocked(h.from, h.to) {
			keep = append(keep, h)
			continue
		}
		if h.ttl--; h.ttl > 0 {
			keep = append(keep, h)
			continue
		}
		batch = append(batch, h)
	}
	n.held = keep
	n.rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	n.mu.Unlock()
	for _, h := range batch {
		n.bus.Call(h.from, h.to, h.req)
	}
	return len(batch)
}

// HeldCount reports how many delayed calls await the next Tick.
func (n *Net) HeldCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.held)
}

// Partition splits the fabric: repair-plane calls between services in
// different groups fail with ErrUnavailable until Heal. Services in no
// group (and external clients) are unaffected.
func (n *Net) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = map[string]int{}
	for gi, g := range groups {
		for _, svc := range g {
			n.group[svc] = gi
		}
	}
}

// Heal removes any partition.
func (n *Net) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = nil
}

func (n *Net) partitionedLocked(from, to string) bool {
	if n.group == nil {
		return false
	}
	// Partitions are declared over base service names; a shard of a
	// partitioned service ("svc#3") sits on the same side of the cut as
	// its siblings — a network partition severs hosts, not shards.
	gf, okf := n.group[wire.ShardBaseName(from)]
	gt, okt := n.group[wire.ShardBaseName(to)]
	return okf && okt && gf != gt
}

func (n *Net) noteLocked(fault, from, to, path string) {
	n.counts[fault]++
	n.trace = append(n.trace, fmt.Sprintf("%s %s->%s %s", fault, from, to, path))
}

// Counts returns how many times each fault class fired.
func (n *Net) Counts() map[string]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]int, len(n.counts))
	for k, v := range n.counts {
		out[k] = v
	}
	return out
}

// Trace returns the full fault schedule, one line per injected fault, in
// injection order. Two runs with the same seed and workload produce
// identical traces.
func (n *Net) Trace() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.trace...)
}
