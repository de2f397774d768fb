package core_test

import (
	"fmt"
	"testing"

	"aire/internal/core"
	"aire/internal/harness"
)

// TestQueueLookupsMatchLinearOnSimProfiles runs seeded sim profiles, serial
// and on the scheduled pump, one-shard and split four ways, with every
// outgoing-queue index lookup checked against the linear reference: each
// collapse must pick the entry the linear collapse loop picks, and each
// find by delivery ID the entry a scan finds. The profiles re-repair
// (collapses), crash and recover (replayed q-sets and q-dels), duplicate
// creates and drop or re-deliver carriers; RunSim's end-of-run
// VerifyQueue must also pass on every controller.
func TestQueueLookupsMatchLinearOnSimProfiles(t *testing.T) {
	var lookups, collapses int
	for _, profile := range []string{"mixed", "crash", "stale", "dupcreate", "duplicate"} {
		for _, sched := range []bool{false, true} {
			for _, shards := range []int{1, 4} {
				for seed := int64(1); seed <= 4; seed++ {
					name := fmt.Sprintf("%s/sched=%v/shards=%d/seed=%d", profile, sched, shards, seed)
					cfg, err := harness.SimProfileConfig(profile)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Seed, cfg.ScheduledPump, cfg.Shards = seed, sched, shards
					stop := core.CheckQueueLookups()
					res, err := harness.RunSim(cfg)
					n, c, mismatches := stop()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !res.Passed {
						t.Errorf("%s: %v", name, res.Failures)
					}
					for _, m := range mismatches {
						t.Errorf("%s: %s", name, m)
					}
					lookups, collapses = lookups+n, collapses+c
				}
			}
		}
	}
	t.Logf("%d index lookups checked, %d collapses", lookups, collapses)
	if collapses == 0 {
		t.Error("no message collapsed onto a queued one: the collapse lookup went unchecked")
	}
}
