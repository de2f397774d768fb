package harness

import (
	"fmt"
	"reflect"
	"testing"
)

// Tests for the deterministic-scheduler simulation mode
// (SimConfig.ScheduledPump): the attacked world's repair delivery runs on
// the real background pump, with pump loops, delivery workers, and the
// workload multiplexed as cooperative tasks of internal/dsched. CI runs
// the full 20-seed × profile matrix via `go run ./cmd/airesim -sched`
// (the `sched` job); these tests keep a shorter matrix plus the
// determinism and regression-discovery properties in `go test`.

// runSchedSeed runs one scheduled-pump simulation, failing with a
// reproduction command naming the seed.
func runSchedSeed(t *testing.T, profile string, seed int64) *SimResult {
	t.Helper()
	cfg, err := SimProfileConfig(profile)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = seed
	cfg.ScheduledPump = true
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("seed %d: harness error (reproduce: go run ./cmd/airesim -sched -profile %s -seeds %d -v): %v", seed, profile, seed, err)
	}
	if !res.Passed {
		t.Errorf("seed %d failed the convergence oracle under the scheduled pump (reproduce: go run ./cmd/airesim -sched -profile %s -seeds %d -v):\n  faults=%v rounds=%d steps=%d\n  %v",
			seed, profile, seed, res.FaultCounts, res.Rounds, res.SchedSteps, res.Failures)
	}
	return res
}

// TestSchedSimSeeds: every fault profile converges under randomly
// interleaved pump workers, for a batch of fixed seeds. The same golden
// -world oracle as the serial matrix — only the delivery concurrency
// changed.
func TestSchedSimSeeds(t *testing.T) {
	for _, profile := range SimProfileNames() {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			steps := 0
			for seed := int64(1); seed <= 4; seed++ {
				res := runSchedSeed(t, profile, seed)
				res.SchedTrace, res.Trace = nil, nil // keep failure output readable
				steps += res.SchedSteps
			}
			// A profile whose runs take no scheduling steps is not
			// actually exercising the pump tasks.
			if steps == 0 {
				t.Errorf("profile %s executed no scheduler steps across its seeds", profile)
			}
		})
	}
}

// TestSchedDeterminism: under the scheduled pump a run is a pure function
// of its seed — two runs must agree on the task schedule (every scheduling
// decision, step for step), the fault schedule, and the final StateDigest,
// or a found schedule could not be replayed.
func TestSchedDeterminism(t *testing.T) {
	cfg, err := SimProfileConfig("mixed")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 42
	cfg.ScheduledPump = true
	r1, err1 := RunSim(cfg)
	r2, err2 := RunSim(cfg)
	if err1 != nil || err2 != nil {
		t.Fatalf("seed 42: %v / %v", err1, err2)
	}
	if r1.StateDigest != r2.StateDigest {
		t.Fatalf("same seed, different StateDigest: %x vs %x", r1.StateDigest, r2.StateDigest)
	}
	if !reflect.DeepEqual(r1.SchedTrace, r2.SchedTrace) {
		t.Fatalf("same seed, different task schedules (%d vs %d steps)", r1.SchedSteps, r2.SchedSteps)
	}
	if !reflect.DeepEqual(r1, r2) {
		r1.SchedTrace, r2.SchedTrace, r1.Trace, r2.Trace = nil, nil, nil, nil
		t.Fatalf("same seed produced different runs:\n%+v\n%+v", r1, r2)
	}
	if r1.SchedSteps == 0 || len(r1.Trace) == 0 {
		t.Fatalf("steps=%d faults=%d: determinism check is vacuous", r1.SchedSteps, len(r1.Trace))
	}
}

// TestSchedExploresSchedules: distinct seeds explore distinct task
// interleavings — the point of the scheduler. (Identical traces across
// seeds would mean the rng is not actually driving the schedule.)
func TestSchedExploresSchedules(t *testing.T) {
	cfg, err := SimProfileConfig("drop")
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for seed := int64(1); seed <= 5; seed++ {
		c := cfg
		c.Seed = seed
		c.ScheduledPump = true
		res, err := RunSim(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		distinct[fmt.Sprint(res.SchedTrace)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("5 seeds produced only %d distinct schedules", len(distinct))
	}
}

// genRaceConfig is the workload that exposes the historical (pre-PR-1)
// ungated-reconcile race: repair-of-repair traffic keeps superseding
// messages that may be mid-flight, so a reconcile that ignores the claimed
// generation drops the newer repair as delivered.
func genRaceConfig(seed int64) SimConfig {
	return SimConfig{Services: 3, Topology: "chain", Repairs: 5, Rerepairs: 4,
		Seed: seed, ScheduledPump: true, faultUngatedReconcile: true}
}

// TestSchedFindsGenReconcileRace: the deterministic scheduler rediscovers
// the PR-1 Held/Attempts/generation reconcile race when the fix is
// disabled (core.Faults.UngatedReconcile), on a fixed seed, within a
// bounded number of steps — and the failing schedule replays exactly. The
// serial Flush-driven simulator can never observe this bug (claim,
// deliver, and reconcile are atomic with respect to the workload there),
// which is precisely the fault class ScheduledPump exists to cover.
func TestSchedFindsGenReconcileRace(t *testing.T) {
	const seed = 8        // fixed: this seed's schedule interleaves a supersede into a claim window (re-picked at the frame epoch)
	const maxSteps = 5000 // "within N steps": the discovery budget
	cfg := genRaceConfig(seed)
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatalf("seed %d no longer exposes the ungated-reconcile race under the scheduled pump", seed)
	}
	if res.SchedSteps > maxSteps {
		t.Fatalf("race found but took %d steps (budget %d)", res.SchedSteps, maxSteps)
	}
	t.Logf("historical race found on seed %d within %d scheduler steps: %v", seed, res.SchedSteps, res.Failures[0])

	// The identical schedule replays the bug verbatim.
	again, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("failing schedule did not replay identically")
	}

	// With the generation gate back in place the same seed converges: the
	// divergence above was the injected race, nothing else.
	fixed := genRaceConfig(seed)
	fixed.faultUngatedReconcile = false
	resFixed, err := RunSim(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if !resFixed.Passed {
		t.Fatalf("seed %d fails even with the generation gate: %v", seed, resFixed.Failures)
	}

	// The serial simulator is blind to the bug: same fault injected, same
	// seeds, no divergence — Flush never lets a supersede interleave with
	// an in-flight delivery.
	for s := int64(1); s <= 5; s++ {
		serial := genRaceConfig(s)
		serial.ScheduledPump = false
		res, err := RunSim(serial)
		if err != nil {
			t.Fatalf("serial seed %d: %v", s, err)
		}
		if !res.Passed {
			t.Fatalf("serial seed %d unexpectedly observed the race (Flush should be atomic against the workload): %v", s, res.Failures)
		}
	}
}
