package harness

import (
	"context"
	"fmt"
	"time"

	"aire/internal/core"
	"aire/internal/warp"
	"aire/internal/wire"
)

// FanoutScenario is a repair fan-out testbed: one hub service mirroring to
// n peers, with one peer optionally stalled (offline and slow to fail).
// Repairing the attack write at the hub queues one repair message per peer;
// the scenario measures whether delivery to the reachable peers is
// independent of the stalled one.
type FanoutScenario struct {
	TB        *Testbed
	Hub       *core.Controller
	PeerNames []string
	// Stalled is the peer made slow+offline by StallPeer ("" when none).
	Stalled string

	attackID string
}

// NewFanoutScenario builds the hub and n peer services on one bus. The hub
// uses cfg; peers run the default configuration.
func NewFanoutScenario(n int, cfg core.Config) *FanoutScenario {
	tb := NewTestbed()
	s := &FanoutScenario{TB: tb}
	for i := 1; i <= n; i++ {
		s.PeerNames = append(s.PeerNames, fmt.Sprintf("peer%d", i))
	}
	s.Hub = tb.Add(&KVApp{ServiceName: "hub", Mirrors: s.PeerNames}, cfg)
	for _, name := range s.PeerNames {
		tb.Add(&KVApp{ServiceName: name}, core.DefaultConfig())
	}
	return s
}

// RunAttack performs the corrupting write through the hub; normal-operation
// mirroring propagates it to every peer synchronously.
func (s *FanoutScenario) RunAttack() error {
	resp := s.TB.Call("hub", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "evil"))
	if !resp.OK() {
		return fmt.Errorf("fanout: attack write failed: %d %s", resp.Status, resp.Body)
	}
	s.attackID = resp.Header[wire.HdrRequestID]
	return nil
}

// StallPeer makes the named peer stalled: offline, and every delivery
// attempt to it blocks the caller for latency before failing — a hung
// service rather than a refused connection.
func (s *FanoutScenario) StallPeer(name string, latency time.Duration) {
	s.Stalled = name
	s.TB.SetLatency(name, latency)
	s.TB.SetOffline(name, true)
}

// ReviveStalledPeer brings the stalled peer back online and instant.
func (s *FanoutScenario) ReviveStalledPeer() {
	if s.Stalled == "" {
		return
	}
	s.TB.SetLatency(s.Stalled, 0)
	s.TB.SetOffline(s.Stalled, false)
	s.Stalled = ""
}

// Repair cancels the attack request at the hub, queueing one delete repair
// message per peer.
func (s *FanoutScenario) Repair() error {
	if s.attackID == "" {
		return fmt.Errorf("fanout: RunAttack first")
	}
	_, err := s.Hub.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: s.attackID})
	return err
}

// peerRepaired reports whether the named peer no longer serves the attack
// value.
func (s *FanoutScenario) peerRepaired(name string) bool {
	resp, err := s.TB.Bus.Call("", name, wire.NewRequest("GET", "/get").WithForm("key", "x"))
	return err == nil && resp.Status == 404
}

// ReachableRepaired reports whether every peer except the stalled one has
// been repaired.
func (s *FanoutScenario) ReachableRepaired() bool {
	for _, name := range s.PeerNames {
		if name == s.Stalled {
			continue
		}
		if !s.peerRepaired(name) {
			return false
		}
	}
	return true
}

// AllRepaired reports whether every peer has been repaired.
func (s *FanoutScenario) AllRepaired() bool {
	for _, name := range s.PeerNames {
		if !s.peerRepaired(name) {
			return false
		}
	}
	return true
}

// WaitReachableRepaired waits until every reachable peer is repaired or the
// timeout elapses, returning how long it took and whether it succeeded. It
// re-checks every millisecond.
func (s *FanoutScenario) WaitReachableRepaired(timeout time.Duration) (time.Duration, bool) {
	start := time.Now()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if s.ReachableRepaired() {
			return time.Since(start), true
		}
		select {
		case <-tick.C:
		case <-deadline.C:
			return time.Since(start), false
		}
	}
}

// SettleUntilReachableRepaired drives synchronous pump rounds (the serial
// baseline) until the reachable peers are repaired or maxRounds elapse,
// returning the wall time spent settling and whether it succeeded. Unlike
// the background pump, each round's wall time includes every stalled
// delivery attempt.
func (s *FanoutScenario) SettleUntilReachableRepaired(maxRounds int) (time.Duration, bool) {
	start := time.Now()
	for i := 0; i < maxRounds; i++ {
		if s.ReachableRepaired() {
			return time.Since(start), true
		}
		s.TB.Settle(1)
	}
	return time.Since(start), s.ReachableRepaired()
}

// StartPumps starts the background pump on every controller in the testbed,
// returning a stop function.
func (tb *Testbed) StartPumps(ctx context.Context) (stop func(), err error) {
	return core.StartPumps(ctx, tb.controllers()...)
}

// SetLatency injects per-call delivery latency for the named service.
func (tb *Testbed) SetLatency(svc string, d time.Duration) { tb.Bus.SetLatency(svc, d) }
