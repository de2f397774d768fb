package harness

import (
	"fmt"
	"testing"

	"aire/internal/simnet"
)

// equivCfg is a composite workload exercising every index: replaces and
// cancels (rollback + re-execution), re-repairs (queue collapsing),
// creates (past insertion, NeighborCalls anchors), crash-restarts
// (Restore/Append index rebuilds), and delay/duplicate faults
// (FindByCallRespID on redelivered acknowledgments).
func equivCfg(seed int64) SimConfig {
	return SimConfig{
		Seed:      seed,
		Services:  3,
		Topology:  "chain",
		Repairs:   4,
		Rerepairs: 2,
		Creates:   2,
		CrashRate: 0.05,
		Faults:    simnet.FaultPlan{Drop: 0.1, DropResponse: 0.1, Duplicate: 0.1, Delay: 0.15},
	}
}

// TestIndexEquivalenceOnSimWorkloads runs the composite sim workload, a
// mix no CI cell has, on seeds 1–20. Each run must converge to the golden
// state, and RunSim's end-of-run VerifyIndexes check must find every
// controller's store and log indexes coherent with what they index (an
// incoherent index is a Failures line). That the indexed walk repairs
// exactly what the whole-timeline walk would is warp's
// TestIndexedWalkMatchesLinearReference. Some seed must crash-restart, so
// re-created engines and rebuilt indexes are covered too.
func TestIndexEquivalenceOnSimWorkloads(t *testing.T) {
	const seeds = 20
	ran, crashes := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := RunSim(equivCfg(seed))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !res.Passed {
				t.Fatalf("seed %d failed the convergence oracle: %v", seed, res.Failures)
			}
			ran++
			crashes += res.CrashCount
		})
	}
	if ran == seeds && crashes == 0 {
		t.Fatalf("no seed in 1–%d crash-restarted: re-created engines went unchecked", seeds)
	}
}
