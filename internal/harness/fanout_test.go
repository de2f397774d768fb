package harness

import (
	"context"
	"testing"
	"time"

	"aire/internal/core"
)

// pumpCfg is a hub configuration tuned for the fan-out tests: fixed
// 8-message batches.
func pumpCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.BatchPolicy = core.AdaptiveBatch{Min: 8, Max: 8}
	return cfg
}

// TestFanoutPumpDeliversAroundStalledPeer is the tentpole property: with one
// peer stalled (offline, and hanging callers for a long timeout), the
// background pump still repairs every reachable peer promptly — delivery to
// healthy peers never queues behind the stalled one.
func TestFanoutPumpDeliversAroundStalledPeer(t *testing.T) {
	// Generous stall: the assertion below is an upper bound on wall time,
	// so the margin between "healthy peers repaired" (~1ms in-memory) and
	// the stall must absorb scheduler/GC noise on loaded CI runners.
	const stallLatency = 750 * time.Millisecond
	s := NewFanoutScenario(6, pumpCfg())
	if err := s.RunAttack(); err != nil {
		t.Fatal(err)
	}
	s.StallPeer("peer3", stallLatency)
	if err := s.Repair(); err != nil {
		t.Fatal(err)
	}

	stop, err := s.TB.StartPumps(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	elapsed, ok := s.WaitReachableRepaired(5 * time.Second)
	if !ok {
		t.Fatalf("reachable peers not repaired after %v; queue=%d", elapsed, s.Hub.QueueLen())
	}
	// The healthy peers must not have waited out even one stalled delivery
	// attempt: serial delivery would block ≥ stallLatency before reaching
	// whichever peers sit behind the stalled one in the queue.
	if elapsed >= stallLatency {
		t.Errorf("reachable repair took %v, not concurrent with the %v stall", elapsed, stallLatency)
	}
	// The stalled peer's message is still live — queued, not parked — since
	// an unreachable peer never parks a message.
	if s.Hub.QueueLen() == 0 {
		t.Fatal("stalled peer's repair message should remain queued")
	}
	for _, p := range s.Hub.Pending() {
		if p.Held {
			t.Fatalf("an unreachable peer must not park messages: %+v", p)
		}
	}
}

// TestFanoutStalledPeerRecovers: once the stalled peer returns, the pump's
// backoff retries deliver the held-back repair without any manual Retry.
func TestFanoutStalledPeerRecovers(t *testing.T) {
	s := NewFanoutScenario(4, pumpCfg())
	if err := s.RunAttack(); err != nil {
		t.Fatal(err)
	}
	s.StallPeer("peer2", 5*time.Millisecond)
	if err := s.Repair(); err != nil {
		t.Fatal(err)
	}

	stop, err := s.TB.StartPumps(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	if _, ok := s.WaitReachableRepaired(5 * time.Second); !ok {
		t.Fatal("reachable peers not repaired")
	}
	s.ReviveStalledPeer()

	// Queue empty means every delete landed (delivery applies the repair in
	// the peer's handler before the message is dequeued).
	if !s.Hub.WaitQueueEmpty(5 * time.Second) {
		t.Fatalf("stalled peer not repaired after recovery; queue=%d", s.Hub.QueueLen())
	}
	if !s.AllRepaired() {
		t.Fatal("queue drained but a peer still serves the attack value")
	}
}

// TestFanoutSerialSettleBlocksOnStall documents the baseline the pump
// replaces: synchronous rounds pay the stalled peer's timeout inline, so
// even the healthy peers' repair waits on it.
func TestFanoutSerialSettleBlocksOnStall(t *testing.T) {
	const stallLatency = 30 * time.Millisecond
	s := NewFanoutScenario(4, core.DefaultConfig())
	if err := s.RunAttack(); err != nil {
		t.Fatal(err)
	}
	s.StallPeer("peer2", stallLatency)
	if err := s.Repair(); err != nil {
		t.Fatal(err)
	}
	elapsed, ok := s.SettleUntilReachableRepaired(10)
	if !ok {
		t.Fatal("reachable peers not repaired by serial settle")
	}
	if elapsed < stallLatency {
		t.Errorf("serial settle finished in %v — expected it to block ≥ %v on the stalled peer", elapsed, stallLatency)
	}
}

// TestFanoutPumpStartStopLifecycle exercises double-start and double-stop.
func TestFanoutPumpStartStopLifecycle(t *testing.T) {
	s := NewFanoutScenario(2, pumpCfg())
	if err := s.Hub.StartPump(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Hub.StartPump(context.Background()); err == nil {
		t.Fatal("second StartPump must fail while running")
	}
	if !s.Hub.PumpRunning() {
		t.Fatal("pump should be running")
	}
	s.Hub.StopPump()
	s.Hub.StopPump() // idempotent
	if s.Hub.PumpRunning() {
		t.Fatal("pump should be stopped")
	}
	// Restart works after a stop.
	if err := s.Hub.StartPump(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Hub.StopPump()
}
