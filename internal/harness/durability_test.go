package harness

import "testing"

// Crash-durability regressions. Every simulated crash rebuilds a service
// purely from the on-disk WAL (checkpoint + replay); the crash profile
// power-losses the unsynced tail away, and its seed sweeps in the sim and
// sched matrices (cmd/airesim) require zero committed state lost. The
// fsync=none run here proves that gate has teeth — without the fsync the
// same schedules genuinely lose their tails.

// TestWALFsyncNoneLosesTail demonstrates the hazard the fsync gate closes:
// the same crash schedules run with fsync=none must lose committed state on
// at least one seed — either the oracle diverges, or the repair log's tail
// vanishes so completely that a scheduled repair cannot even name its
// target request. If every seed survives, the crash profile has stopped
// testing durability.
func TestWALFsyncNoneLosesTail(t *testing.T) {
	lost := 0
	for seed := int64(1); seed <= 20; seed++ {
		cfg, err := SimProfileConfig("crash")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = seed
		cfg.WALFsync = "none"
		res, err := RunSim(cfg)
		if err != nil || !res.Passed {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("fsync=none lost nothing across seeds 1..20 — the crash profile no longer exercises the durability boundary")
	}
	t.Logf("fsync=none lost committed state on %d/20 seeds (fsync=every loses it on 0/20: airesim -profile crash)", lost)
}

// TestWALCrashUnderScheduledPump runs the WAL-backed crash profile with
// repair delivery on the real background pump under the deterministic
// scheduler: recovery has to coexist with claimed-but-unreconciled
// deliveries, not just quiesced queues.
func TestWALCrashUnderScheduledPump(t *testing.T) {
	for _, profile := range []string{"crash", "fsynclag"} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg, err := SimProfileConfig(profile)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = seed
			cfg.ScheduledPump = true
			res, err := RunSim(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: harness error (reproduce: go run ./cmd/airesim -sched -profile %s -seeds %d -v): %v", profile, seed, profile, seed, err)
			}
			if !res.Passed {
				t.Errorf("%s seed %d failed under the scheduled pump (reproduce: go run ./cmd/airesim -sched -profile %s -seeds %d -v): %v",
					profile, seed, profile, seed, res.Failures)
			}
		}
	}
}
