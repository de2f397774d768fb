package harness

// Observability acceptance tests (ISSUE 8): wave reconstruction from
// propagated trace context, digest-neutrality of the instrumentation, and
// the widened quiesce progress signal.

import (
	"reflect"
	"testing"

	"aire/internal/obs"
)

// TestSchedObsDigestInvariant: turning the observability registry on must
// not perturb a scheduled-pump run in any way the digest can see — same
// StateDigest, same step count, the same task at every scheduling
// decision, across seeds 1–20. Trace propagation is always-on protocol
// behavior (wave IDs are minted whether or not anyone records them), so
// the only difference an obs-on run is allowed to have is what lands in
// the registry.
func TestSchedObsDigestInvariant(t *testing.T) {
	check := func(t *testing.T, profile string, lo, hi int64) {
		base, err := SimProfileConfig(profile)
		if err != nil {
			t.Fatal(err)
		}
		for seed := lo; seed <= hi; seed++ {
			off, on := base, base
			off.Seed, on.Seed = seed, seed
			off.ScheduledPump, on.ScheduledPump = true, true
			on.Obs = true
			roff, err1 := RunSim(off)
			ron, err2 := RunSim(on)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: %v / %v", seed, err1, err2)
			}
			if roff.StateDigest != ron.StateDigest {
				t.Errorf("seed %d: obs changed StateDigest: %x (off) vs %x (on)", seed, roff.StateDigest, ron.StateDigest)
			}
			if roff.SchedSteps != ron.SchedSteps || !reflect.DeepEqual(roff.SchedTrace, ron.SchedTrace) {
				t.Errorf("seed %d: obs changed the task schedule (%d vs %d steps)", seed, roff.SchedSteps, ron.SchedSteps)
			}
			if len(ron.WaveStats) == 0 || ron.ObsMetrics == nil {
				t.Errorf("seed %d: obs run recorded nothing (waves=%d)", seed, len(ron.WaveStats))
			}
		}
	}
	// mixed covers partitions + crashes + every wire fault across the full
	// seed range; crash additionally runs the crash-recovery registry
	// re-attach under power loss.
	t.Run("mixed", func(t *testing.T) { check(t, "mixed", 1, 20) })
	t.Run("crash", func(t *testing.T) { check(t, "crash", 1, 5) })
}

// TestObsWaveDepthAcrossCrashRecovery is the tentpole acceptance: a
// fault-injected scheduled-pump run under the crash profile (power-loss
// crash-restarts, WAL recovery) must reconstruct at least one repair wave
// of hop depth >= 3 — origin repair (0), repair carrier downstream (1),
// the next carrier plus replace_response upstream (2), and the deepest
// service's replace_response (3) — with per-hop latency, purely from the
// Aire-Trace-* context that rode the carriers and the WAL through
// crash-recovery.
func TestObsWaveDepthAcrossCrashRecovery(t *testing.T) {
	base, err := SimProfileConfig("crash")
	if err != nil {
		t.Fatal(err)
	}
	type deepRun struct {
		seed    int64
		crashes int
		wave    obs.WaveStat
	}
	var found *deepRun
	for seed := int64(1); seed <= 20 && found == nil; seed++ {
		cfg := base
		cfg.Seed = seed
		cfg.ScheduledPump = true
		cfg.Obs = true
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Passed || res.CrashCount == 0 {
			continue
		}
		for _, w := range res.WaveStats {
			if w.MaxHop >= 3 {
				found = &deepRun{seed: seed, crashes: res.CrashCount, wave: w}
				break
			}
		}
	}
	if found == nil {
		t.Fatal("no crash-profile seed in 1..20 produced a passing run with a wave of hop depth >= 3")
	}
	w := found.wave
	t.Logf("seed %d (%d crashes): wave %s origin=%s max-hop=%d spans=%d hops=%+v",
		found.seed, found.crashes, w.Wave, w.Origin, w.MaxHop, w.Spans, w.Hops)
	if w.Origin == "" {
		t.Errorf("deep wave has no origin (no hop-0 span correlated): %+v", w)
	}
	if len(w.Hops) == 0 {
		t.Fatalf("deep wave paired no per-hop latencies: %+v", w)
	}
	var sum int64
	paired := 0
	for _, h := range w.Hops {
		if h.Hop < 1 || h.Hop > w.MaxHop {
			t.Errorf("hop %d outside 1..%d", h.Hop, w.MaxHop)
		}
		paired += h.Msgs
		sum += h.SumLatencyNS
	}
	if paired == 0 {
		t.Fatalf("deep wave has hop entries but no paired carriers: %+v", w.Hops)
	}
	if sum <= 0 {
		t.Errorf("deep wave's per-hop latency sums to %d ns; expected a positive virtual-clock sojourn: %+v", sum, w.Hops)
	}
}
