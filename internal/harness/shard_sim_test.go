package harness

import (
	"strings"
	"testing"
)

// TestShardN1DigestsPinned pins the unsharded path: with Shards unset (0)
// or 1, the full StateDigest — state lines, fault trace, scheduler steps,
// scheduler trace — must stay byte-identical to the digests pinned below.
// Any drift here means a change perturbed the delivery path's schedule.
//
// Digest epoch: ISSUE 13 (version vectors became unconditional). The
// lostwave and crash pins predate the shard layer and carried over
// unchanged — lostwave already ran the vector layer, and this crash seed's
// trace does not depend on it; the two mixed pins were re-pinned in that
// PR, once, because every carrier now announces its vector (NACKs clear
// backoff windows, and under -sched add the vv-reoffer yield point).
//
// Digest epoch: one retry policy (backoff always on; Flush ignores retry
// windows). The serial driver's Flush now retries a backing-off peer on
// every pulse instead of waiting out its window, so the two serial pins
// whose seeds hit an unreachable peer — mixed s7 and lostwave s3 — were
// re-pinned once. crash s5 and both -sched pins are unchanged.
//
// Digest epoch: one pump configuration (adaptive batching and admission
// control on every background pump pass). Each -sched pump pass now
// snapshots backlogs and passes the batch-policy and admission yield
// points, and claims under adaptive limits instead of a fixed 16, so both
// -sched pins were re-pinned once. The serial pins cannot move: Flush
// ignores both policies.
//
// Digest epoch: one receive path (every claimed batch travels as one frame,
// applied in one warp run and reconciled in one WAL entry). Fewer calls
// consume fewer fault draws and the frame send/reconcile are new named
// yield points, so the four mixed and lostwave pins were re-pinned once;
// crash s5 is unchanged — its serial run's fault plan draws nothing.
//
// Digest epoch: whole-backlog claims (a pump pass claims each peer's whole
// deliverable backlog up to the batch policy's Max instead of doubling
// from 1, and admission caps a cascade claim at Burst while
// response-class messages wait). Only -sched pump passes size claims: the
// lostwave s3 -sched digest moved and was re-pinned, once; the mixed s7
// -sched digest did not move. The serial pins cannot move: Flush ignores
// both policies.
func TestShardN1DigestsPinned(t *testing.T) {
	cases := []struct {
		prof  string
		seed  int64
		sched bool
		want  uint64
	}{
		{"mixed", 7, false, 4179769600832532253},    // frame epoch
		{"mixed", 7, true, 12728266466959857409},    // frame epoch
		{"lostwave", 3, false, 1559703763253707506}, // frame epoch
		{"lostwave", 3, true, 4879535941621857666},  // whole-backlog epoch
		{"crash", 5, false, 11845775653790173362},
	}
	for _, tc := range cases {
		for _, shards := range []int{0, 1} {
			cfg, err := SimProfileConfig(tc.prof)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = tc.seed
			cfg.ScheduledPump = tc.sched
			cfg.Shards = shards
			res, err := RunSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.StateDigest != tc.want {
				t.Errorf("%s s%d sched=%v shards=%d: digest %d, want pinned digest %d",
					tc.prof, tc.seed, tc.sched, shards, res.StateDigest, tc.want)
			}
		}
	}
}

// TestShardInvariantDigest is the tentpole's convergence gate: the same
// seed and workload must converge to the same oracle state (the state-only
// OracleDigest — shard layout is an implementation detail, so the full
// StateDigest legitimately differs across N) for N ∈ {1, 2, 4} under every
// fault profile, serial and under the deterministic scheduler.
func TestShardInvariantDigest(t *testing.T) {
	type mode struct {
		seed  int64
		sched bool
	}
	modes := []mode{{1, false}, {2, false}, {3, false}, {1, true}}
	for _, prof := range SimProfileNames() {
		for _, m := range modes {
			var ref uint64
			for _, shards := range []int{1, 2, 4} {
				cfg, err := SimProfileConfig(prof)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Seed = m.seed
				cfg.ScheduledPump = m.sched
				cfg.Shards = shards
				res, err := RunSim(cfg)
				if err != nil {
					t.Fatalf("%s s%d sched=%v shards=%d: %v", prof, m.seed, m.sched, shards, err)
				}
				if !res.Passed {
					t.Errorf("%s s%d sched=%v shards=%d: did not converge: %v",
						prof, m.seed, m.sched, shards, res.Failures)
					continue
				}
				if shards == 1 {
					ref = res.OracleDigest
				} else if res.OracleDigest != ref {
					t.Errorf("%s s%d sched=%v: oracle digest diverges across shard counts: N=1 %d, N=%d %d",
						prof, m.seed, m.sched, ref, shards, res.OracleDigest)
				}
			}
		}
	}
}

// TestShardSchedTraceYieldLabels checks the shard layer's dsched yield
// discipline: the router's admission point and the sender's gate resolution
// surface as named entries in the schedule trace when the world is sharded,
// and stay absent (so existing seed digests are untouched) when it is not.
func TestShardSchedTraceYieldLabels(t *testing.T) {
	cfg, err := SimProfileConfig("mixed")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 7
	cfg.ScheduledPump = true
	cfg.Shards = 4
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := strings.Join(res.SchedTrace, "\n")
	for _, label := range []string{"@shard-route", "@shard-gate"} {
		if !strings.Contains(trace, label) {
			t.Errorf("schedule trace has no %q yield point (world sharded)", label)
		}
	}

	cfg.Shards = 1
	res, err = RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace = strings.Join(res.SchedTrace, "\n")
	for _, label := range []string{"@shard-route", "@shard-gate"} {
		if strings.Contains(trace, label) {
			t.Errorf("schedule trace contains %q although the world is unsharded", label)
		}
	}
}
