// Command airesim sweeps the deterministic fault-injection simulator over
// a seed range: for each seed it generates a randomized multi-service
// workload, interleaves Cancel/Replace repairs with injected repair-plane
// faults (drops, lost responses, duplicates, delays/reorders, partitions,
// crash-restarts), and checks the paper's convergence oracle — the faulted
// world must quiesce to exactly the state of a fault-free reference
// re-execution with the attacks removed.
//
// The stale and dupcreate profiles target the exactly-once session layer
// (internal/deliver): repair-of-repair workloads under multi-tick delays,
// and create-bearing workloads under lost responses. Run them with
// -nodedup to watch the underlying hazards fire without the dedup inbox.
//
// With -sched, repair delivery runs on the real background pump under the
// deterministic scheduler (internal/dsched): pump loops, delivery workers,
// and the workload interleave as cooperative tasks picked by a seeded rng,
// so concurrent-pump schedules are explored seed-reproducibly. A failing
// seed prints its scheduler step count; replaying the seed replays the
// schedule verbatim.
//
// Every service of the faulted world runs on an on-disk write-ahead log
// (internal/wal), and every crash discards in-memory state, recovering from
// checkpoint + WAL replay. A crash is a process kill (buffered appends
// survive) except under the crash profile, where it is a power loss with
// fsync=every: zero committed state may be lost there; run with -fsync none
// to watch the unsynced tail genuinely disappear.
//
// CI runs a short fixed-seed matrix per fault profile (the `sim` job
// serial, the `sched` job under -sched); longer local sweeps:
//
//	make sim SIM_PROFILE=mixed SIM_SEEDS=1:500
//	make sim-sched SIM_PROFILE=mixed SIM_SEEDS=1:500
//	go run ./cmd/airesim -profile crash -seeds 17 -v   # replay one failure
//	go run ./cmd/airesim -profile crash -seeds 1:20 -fsync none
//	go run ./cmd/airesim -profile stale -seeds 1:20 -nodedup
//	go run ./cmd/airesim -sched -profile mixed -seeds 7 -v
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"aire/internal/harness"
	"aire/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so the smoke test can drive it.
// Exit codes: 0 the sweep met its verdict, 1 it did not (or a seed could
// not run at all), 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("airesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		profile   = fs.String("profile", "mixed", "fault profile: "+strings.Join(harness.SimProfileNames(), ", "))
		seeds     = fs.String("seeds", "1:20", `seeds to run: "lo:hi" (inclusive) or "3,7,19"`)
		ops       = fs.Int("ops", 0, "workload steps per run (0 = profile default)")
		services  = fs.Int("services", 0, "number of services (0 = profile default)")
		topology  = fs.String("topology", "", `"chain" or "fanout" (empty = profile default)`)
		repairs   = fs.Int("repairs", 0, "attacked puts per run (0 = profile default)")
		sched     = fs.Bool("sched", false, "run repair delivery on the background pump under the deterministic scheduler (internal/dsched): seeded task interleavings instead of the serial Flush loop")
		shards    = fs.Int("shards", 0, "split every faulted service into N shards (per-shard store/log/pump/WAL); every service sits behind the same router at every N, 0 means 1; the convergence oracle is shard-count-invariant")
		fsync     = fs.String("fsync", "", `override the profile's WAL fsync policy: "every", "interval", "none" (empty = profile default; "none" under -profile crash demonstrates tail loss)`)
		nodedup   = fs.Bool("nodedup", false, "disable the peer-side exactly-once dedup inbox (demonstrates the stale/dupcreate hazards)")
		expectF   = fs.Bool("expect-fail", false, "invert the verdict: exit 0 only if at least one seed FAILS the oracle and none errors (teeth checks: proves a disabled defense genuinely loses its property)")
		verbose   = fs.Bool("v", false, "print the fault schedule of failing seeds")
		listProfs = fs.Bool("profiles", false, "list fault profiles and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listProfs {
		for _, name := range harness.SimProfileNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}

	usage := func(err error) int {
		fmt.Fprintln(stderr, "airesim:", err)
		return 2
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		return usage(err)
	}
	base, err := harness.SimProfileConfig(*profile)
	if err != nil {
		return usage(err)
	}
	if *fsync != "" {
		if _, err := wal.ParsePolicy(*fsync); err != nil {
			return usage(err)
		}
		base.WALFsync = *fsync
	}
	if *ops > 0 {
		base.Ops = *ops
	}
	if *services > 0 {
		base.Services = *services
	}
	if *topology != "" {
		base.Topology = *topology
	}
	if *repairs > 0 {
		base.Repairs = *repairs
	}
	base.DisableDedup = *nodedup
	base.ScheduledPump = *sched
	base.Shards = *shards

	failed, errored := 0, 0
	for _, seed := range seedList {
		cfg := base
		cfg.Seed = seed
		res, err := harness.RunSim(cfg)
		if err != nil {
			fmt.Fprintf(stdout, "seed %-6d ERROR  %v\n", seed, err)
			errored++
			continue
		}
		steps := ""
		if *sched {
			steps = fmt.Sprintf(" steps=%d", res.SchedSteps)
		}
		if res.Passed {
			fmt.Fprintf(stdout, "seed %-6d PASS   repairs=%d crashes=%d partitions=%d rounds=%d%s faults=%s\n",
				seed, res.RepairCount, res.CrashCount, res.PartitionCount, res.Rounds, steps, faultSummary(res.FaultCounts))
			continue
		}
		failed++
		// A failing seed names everything a replay needs: the seed itself
		// and (under -sched) the scheduler step count of the found schedule.
		fmt.Fprintf(stdout, "seed %-6d FAIL   repairs=%d crashes=%d partitions=%d rounds=%d%s faults=%s\n",
			seed, res.RepairCount, res.CrashCount, res.PartitionCount, res.Rounds, steps, faultSummary(res.FaultCounts))
		for _, f := range res.Failures {
			fmt.Fprintf(stdout, "             %s\n", f)
		}
		if *verbose {
			for _, line := range res.Trace {
				fmt.Fprintf(stdout, "             | %s\n", line)
			}
			for _, line := range res.SchedTrace {
				fmt.Fprintf(stdout, "             > %s\n", line)
			}
		}
	}
	schedFlag := ""
	if *sched {
		schedFlag = " -sched"
	}
	if *fsync != "" {
		schedFlag += " -fsync " + *fsync
	}
	if *shards > 1 {
		schedFlag += fmt.Sprintf(" -shards %d", *shards)
	}
	if *expectF {
		// Teeth mode: the sweep exists to prove a hazard fires. All-pass
		// means the disabled defense was not actually load-bearing, and a
		// seed that errored proves nothing about the oracle either way.
		if errored > 0 {
			fmt.Fprintf(stdout, "airesim: %d/%d seeds errored (profile %s%s) — an expected failure must come from the oracle\n", errored, len(seedList), *profile, schedFlag)
			return 1
		}
		if failed == 0 {
			fmt.Fprintf(stdout, "airesim: expected failures but all %d seeds passed (profile %s%s) — the hazard has lost its teeth\n", len(seedList), *profile, schedFlag)
			return 1
		}
		fmt.Fprintf(stdout, "airesim: %d/%d seeds failed as expected (profile %s%s)\n", failed, len(seedList), *profile, schedFlag)
		return 0
	}
	if failed+errored > 0 {
		fmt.Fprintf(stdout, "airesim: %d/%d seeds failed (profile %s); rerun one with%s -seeds <seed> -v\n", failed+errored, len(seedList), *profile, schedFlag)
		return 1
	}
	fmt.Fprintf(stdout, "airesim: %d seeds passed (profile %s%s)\n", len(seedList), *profile, schedFlag)
	return 0
}

// parseSeeds accepts "lo:hi" (inclusive range) or a comma-separated list.
func parseSeeds(s string) ([]int64, error) {
	s = strings.TrimSpace(s)
	if lo, hi, ok := strings.Cut(s, ":"); ok {
		l, err1 := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
		h, err2 := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
		if err1 != nil || err2 != nil || h < l {
			return nil, fmt.Errorf("bad seed range %q (want lo:hi with hi >= lo)", s)
		}
		out := make([]int64, 0, h-l+1)
		for v := l; v <= h; v++ {
			out = append(out, v)
		}
		return out, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func faultSummary(counts map[string]int) string {
	if len(counts) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, counts[k]))
	}
	return strings.Join(parts, " ")
}
