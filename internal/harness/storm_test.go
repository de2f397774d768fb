package harness

import (
	"strings"
	"testing"

	"aire/internal/simnet"
)

// stormFaults is the fault plan the starvation regression runs under:
// enough loss and duplication that backoff and redelivery paths are
// exercised, not so much that runs stall. A frame carries a whole claim,
// so the storm makes far fewer calls than carriers and each call's drop
// rate is set higher.
var stormFaults = simnet.FaultPlan{Drop: 0.2, Duplicate: 0.03}

// stormSchedConfig is the starvation scenario: 4 096 cascade carriers over
// 8 slow peers, two busy peers for each of the pump's 4 workers, so
// without admission the cascades can occupy every worker. A pass claims at
// most the batch policy's Max (64) per peer, so each peer's 512 carriers
// take at least eight passes: the cascade outlives the 12 mirror
// injections, and every mirror message meets it.
func stormSchedConfig(seed int64, admission bool) StormConfig {
	return StormConfig{
		Seed:        seed,
		Peers:       8,
		Backlog:     512,
		Responses:   12,
		PeerCost:    6,
		Sched:       true,
		Faults:      stormFaults,
		noAdmission: !admission,
	}
}

// TestStormAdmissionBoundsMirrorLatency is the starvation regression: with
// sender-side admission control on, a 4 096-message repair storm over slow
// peers must not starve the mirror plane — every response-class message
// delivers, and its p99 sojourn stays bounded, for all 20 seeds under
// seeded drop/duplicate faults.
func TestStormAdmissionBoundsMirrorLatency(t *testing.T) {
	const mirrorP99Bound = 2500 // scheduler steps
	for seed := int64(1); seed <= 20; seed++ {
		cfg := stormSchedConfig(seed, true)
		res, err := RunStorm(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.MirrorDelivered != cfg.Responses || res.CascadeDelivered != cfg.Peers*cfg.Backlog {
			t.Fatalf("seed %d: delivered mirror=%d cascade=%d, want %d/%d",
				seed, res.MirrorDelivered, res.CascadeDelivered, cfg.Responses, cfg.Peers*cfg.Backlog)
		}
		t.Logf("seed %2d: mirror p50=%d p99=%d max=%d cascade p50=%d backlogAtDrain=%d rounds=%d steps=%d",
			seed, res.MirrorP50, res.MirrorP99, res.MirrorMax, res.CascadeP50,
			res.BacklogAtMirrorDrain, res.Rounds, res.SchedSteps)
		if res.MirrorP99 > mirrorP99Bound {
			t.Errorf("seed %d: mirror p99 = %d steps, bound %d — admission failed to protect the mirror plane",
				seed, res.MirrorP99, mirrorP99Bound)
		}
	}
}

// TestStormNoAdmissionDegradesMirror is the teeth check: the same storm
// with admission switched off (core.Faults.NoAdmission) must visibly
// degrade mirror latency relative to the admission-on run — otherwise the
// bound above tests nothing.
func TestStormNoAdmissionDegradesMirror(t *testing.T) {
	var worse int
	for seed := int64(1); seed <= 5; seed++ {
		on, err := RunStorm(stormSchedConfig(seed, true))
		if err != nil {
			t.Fatalf("seed %d (admission on): %v", seed, err)
		}
		off, err := RunStorm(stormSchedConfig(seed, false))
		if err != nil {
			t.Fatalf("seed %d (admission off): %v", seed, err)
		}
		t.Logf("seed %d: mirror p99 on=%d off=%d", seed, on.MirrorP99, off.MirrorP99)
		if off.MirrorP99 > on.MirrorP99 {
			worse++
		}
	}
	if worse < 4 {
		t.Fatalf("admission off degraded mirror p99 in only %d/5 seeds — the starvation scenario has no teeth", worse)
	}
}

// TestPumpPolicyYieldLabels checks that every background pump pass runs
// the pump policies and sends and reconciles claims as frames: their
// decision points surface as named entries in the schedule trace of the
// storm and of a plain -sched sim run, which configures neither policy.
func TestPumpPolicyYieldLabels(t *testing.T) {
	storm, err := RunStorm(stormSchedConfig(7, true))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := SimProfileConfig("mixed")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 7
	cfg.ScheduledPump = true
	sim, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run, tr := range map[string][]string{"storm": storm.SchedTrace, "sim mixed s7": sim.SchedTrace} {
		trace := strings.Join(tr, "\n")
		for _, label := range []string{"@batch-policy", "@admission", "@frame-send", "@frame-reconcile"} {
			if !strings.Contains(trace, label) {
				t.Errorf("%s schedule trace has no %q yield point", run, label)
			}
		}
	}
}

// TestStormSerialDelivers runs the storm on the production scheduler
// (real goroutines, wall clock) so the scenario is exercised under -race.
func TestStormSerialDelivers(t *testing.T) {
	res, err := RunStorm(StormConfig{
		Seed: 1, Peers: 3, Backlog: 15, Responses: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MirrorDelivered != 8 || res.CascadeDelivered != 45 {
		t.Fatalf("delivered mirror=%d cascade=%d, want 8/45", res.MirrorDelivered, res.CascadeDelivered)
	}
	t.Logf("serial: mirror p50=%dµs p99=%dµs cascade p50=%dµs", res.MirrorP50, res.MirrorP99, res.CascadeP50)
}
