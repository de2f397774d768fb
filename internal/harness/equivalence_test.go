package harness

// Randomized index-equivalence tests (ISSUE 4): the secondary indexes in
// vdb and repairlog, and the index-driven repair walk in warp, must be
// observationally identical to the retained linear-scan reference
// implementations. Each seed's simulation workload grows an organically
// messy state — creates inserted into the past, re-repairs, GC'd prefixes,
// crash-restored logs — and both the per-lookup results and the end-to-end
// repair outcomes are compared.

import (
	"fmt"
	"reflect"
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

// inspectIndexes cross-checks every indexed lookup against its linear
// reference on each service's quiesced state.
func inspectIndexes(t *testing.T, seed int64) func(w *simWorld) {
	return func(w *simWorld) {
		for _, name := range w.order {
			c := w.ctrls[name]
			c.Svc.Mu.Lock()
			l := c.Svc.Log
			st := c.Svc.Store
			for _, rec := range l.All() {
				for _, call := range rec.Calls {
					if call.RespID == "" {
						continue
					}
					ri, ii, oki := l.FindByCallRespID(call.RespID)
					rl, il, okl := l.FindByCallRespIDLinear(call.RespID)
					if oki != okl || (oki && (ri != rl || ii != il)) {
						t.Errorf("seed %d %s: FindByCallRespID(%q) diverged from linear reference", seed, name, call.RespID)
					}
				}
				for _, target := range w.order {
					for _, ts := range []int64{rec.TS - 1, rec.TS, rec.TS + 1} {
						bi, ai := l.NeighborCalls(target, ts)
						bl, al := l.NeighborCallsLinear(target, ts)
						if bi != bl || ai != al {
							t.Errorf("seed %d %s: NeighborCalls(%q, %d) = %q,%q; linear %q,%q", seed, name, target, ts, bi, ai, bl, al)
						}
					}
				}
				if gi, gl := st.ScanHashAtExcluding("kv", rec.TS, rec.ID), st.ScanHashAtExcludingLinear("kv", rec.TS, rec.ID); gi != gl {
					t.Errorf("seed %d %s: ScanHashAtExcluding(kv, %d, %s) = %#x, linear %#x", seed, name, rec.TS, rec.ID, gi, gl)
				}
				if gi, gl := st.ScanHashAtExcluding("kv", rec.TS, ""), st.ScanHashAtExcludingLinear("kv", rec.TS, ""); gi != gl {
					t.Errorf("seed %d %s: ScanHashAtExcluding(kv, %d, \"\") = %#x, linear %#x", seed, name, rec.TS, gi, gl)
				}
				if gi, gl := st.IDsAt("kv", rec.TS), st.IDsAtLinear("kv", rec.TS); !reflect.DeepEqual(gi, gl) {
					t.Errorf("seed %d %s: IDsAt(kv, %d) = %v, linear %v", seed, name, rec.TS, gi, gl)
				}
			}
			if _, _, ok := l.FindByCallRespID("no-such-resp"); ok {
				t.Errorf("seed %d %s: FindByCallRespID invented a record", seed, name)
			}
			c.Svc.Mu.Unlock()
		}
	}
}

// inspectWalk asserts that every controller of the quiesced world, each
// crash-restarted incarnation included, runs the walk the run asked for —
// without it, a run meant to be linear could silently compare the indexed
// walk with itself.
func inspectWalk(t *testing.T, seed int64, linear bool) func(w *simWorld) {
	return func(w *simWorld) {
		for _, name := range w.cnames {
			if got := w.ctrls[name].Engine.LinearScan; got != linear {
				t.Errorf("seed %d %s: Engine.LinearScan = %v, want %v", seed, name, got, linear)
			}
		}
	}
}

// TestIndexEquivalenceOnSimWorkloads runs the composite sim workload on
// seeds 1–20. For each seed the indexed run's quiesced state is
// lookup-by-lookup compared with the linear references (via the inspect
// hook), and the whole run is repeated with every engine on the reference
// linear walk (warp.Engine.LinearScan): the two runs must agree on every
// field of the result — same repairs, same convergence, same fault
// schedule, same state digest — proving the index-driven walk repairs
// exactly the records the full-timeline walk would. Some seed must
// crash-restart, so re-created engine incarnations are covered too.
func TestIndexEquivalenceOnSimWorkloads(t *testing.T) {
	const seeds = 20
	ran, crashes := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := equivCfg(seed)
			checkIndexes, checkIndexed := inspectIndexes(t, seed), inspectWalk(t, seed, false)
			cfg.inspect = func(w *simWorld) { checkIndexes(w); checkIndexed(w) }
			indexed, err := RunSim(cfg)
			if err != nil {
				t.Fatalf("seed %d (indexed): %v", seed, err)
			}
			if !indexed.Passed {
				t.Fatalf("seed %d (indexed) failed the convergence oracle: %v", seed, indexed.Failures)
			}

			lcfg := equivCfg(seed)
			lcfg.linearScan = true
			lcfg.inspect = inspectWalk(t, seed, true)
			linear, err := RunSim(lcfg)
			if err != nil {
				t.Fatalf("seed %d (linear): %v", seed, err)
			}
			if !linear.Passed {
				t.Fatalf("seed %d (linear) failed the convergence oracle: %v", seed, linear.Failures)
			}
			if !reflect.DeepEqual(indexed, linear) {
				t.Errorf("seed %d: indexed and linear runs diverged:\n  indexed: %+v\n  linear:  %+v", seed, indexed, linear)
			}
			ran++
			crashes += linear.CrashCount
		})
	}
	if ran == seeds && crashes == 0 {
		t.Fatalf("no seed in 1–%d crash-restarted: re-created engines went unchecked", seeds)
	}
}
