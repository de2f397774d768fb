// Command bench is the repository's benchmark: six named workloads, the
// end-to-end metrics a user of an Aire deployment would see, and an
// outside-in per-layer trace. See README.md in this directory.
//
// Three ways to run it, all from the repository root via bench/run.sh
// (which builds this package and executes it):
//
//	bash bench/run.sh --workload put.aire --seed 1 --seconds 15 --trace 0
//	    one run of one workload; the last line of standard output is the
//	    machine-readable result (the contract in BENCHMARK.json).
//	bash bench/run.sh -seed 1 -reps 5 -out bench/out/result.json
//	    the whole suite: every workload untraced (reps times), then a
//	    traced pass, the tables, and a compact result file.
//	bash bench/run.sh -compare a.json b.json
//	    two result files side by side, judged against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const (
	// defaultSeconds is one run's measurement window (BENCHMARK.json's
	// run_seconds); tracedSuiteSeconds is the suite's traced pass (half
	// of it traced, a quarter untraced on either side).
	defaultSeconds     = 15
	tracedSuiteSeconds = 12
	// setupRepeats is how many times a run builds its fixture for setup_s
	// (workloads that build one per episode have more samples anyway).
	setupRepeats = 5
	outRoot      = "bench/out"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the result line (driver mode)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds      = flag.Int("seconds", defaultSeconds, "measurement window of one run, in seconds")
		trace        = flag.Int("trace", 0, "driver mode: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced run")
		out          = flag.String("out", filepath.Join(outRoot, "result.json"), "suite mode: result file to write")
		reps         = flag.Int("reps", 3, "suite mode: untraced runs per workload (seed, seed+1, …); medians and quartiles are reported")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
		detailPath   = flag.String("detail", "", "driver mode: also write the run's ungated numbers to this file (the suite reads it)")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workloadName != "":
		err = driverRun(*workloadName, *seed, *seconds, *trace == 1, *detailPath)
	default:
		err = suiteRun(*seed, *reps, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// scratchDir makes a private directory for one process's WAL files under
// the benchmark's output directory (inside the checkout, never /tmp).
func scratchDir() (string, func(), error) {
	dir := filepath.Join(outRoot, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// detail is everything one run measured. The suite runs every run as a
// child process (so that no run inherits another's heap) and reads this
// from the file the child was asked to write.
type detail struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Gated     map[string]float64 `json:"end_to_end"`
	Ungated   map[string]float64 `json:"ungated"`
	Layers    map[string]float64 `json:"per_layer,omitempty"` // traced runs only
}

func detailOf(r *runResult) detail {
	d := detail{Attempted: r.attempted, Failed: r.failed, Problems: r.problems}
	d.Gated, d.Ungated = endToEndOf(r)
	return d
}

// runUntraced measures a workload with tracing off.
func runUntraced(w workload, seed int64, window time.Duration, dir string) (detail, error) {
	r, err := w.run(runConfig{seed: seed, window: window, setups: setupRepeats, outDir: dir})
	if err != nil {
		return detail{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return detailOf(r), nil
}

// runTraced measures a workload three times in one process: untraced for
// a quarter of the window, traced (every wrapper and hook installed) for
// half of it, untraced for the last quarter. The traced run gives the
// per-layer metrics; the mean of the two untraced rates around it is the
// base of trace_overhead, so that a process still warming up (or a host
// slowing down) does not pass for tracing cost. The layer probes run last.
// The untraced runs' failures count too.
func runTraced(w workload, seed int64, window time.Duration, dir string) (detail, []span, error) {
	var bases [2]detail
	var r *runResult
	tr := newTracer()
	for i, cfg := range []runConfig{{window: window / 4}, {window: window / 2, tr: tr}, {window: window / 4}} {
		cfg.seed, cfg.setups, cfg.outDir = seed, 1, dir
		res, err := w.run(cfg)
		if err != nil {
			return detail{}, nil, fmt.Errorf("%s (traced pass): %w", w.name, err)
		}
		if cfg.tr != nil {
			r = res
		} else {
			bases[i/2] = detailOf(res)
		}
	}
	spans := tr.snapshot()
	d := detailOf(r)
	d.Layers = layersOf(r, spans, w.entry)
	if rate := (bases[0].Gated["ops_per_s"] + bases[1].Gated["ops_per_s"]) / 2; rate > 0 {
		d.Layers["trace_overhead"] = 1 - d.Gated["ops_per_s"]/rate
	}
	probes, err := runProbes(dir)
	if err != nil {
		return detail{}, nil, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range probes {
		d.Layers[k] = v
	}
	for _, base := range bases {
		d.Attempted += base.Attempted
		d.Failed += base.Failed
		d.Problems = append(d.Problems, base.Problems...)
	}
	return d, spans, nil
}

// resultLine is the last line of a driver-mode run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine builds the contract's result: the per-layer metrics of a
// traced run, the end-to-end metrics otherwise.
func (d detail) resultLine(traced bool) resultLine {
	defs, from := endToEnd, d.Gated
	if traced {
		defs, from = perLayer, d.Layers
	}
	line := resultLine{
		Correct:   d.Failed == 0 && d.Attempted > 0,
		Attempted: d.Attempted,
		Failed:    d.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, def := range defs {
		line.Metrics[def.Name] = metricValue{from[def.Name], def.Unit}
	}
	return line
}

// driverRun is one run of one workload under the BENCHMARK.json contract.
func driverRun(name string, seed int64, seconds int, traced bool, detailPath string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	dir, cleanup, err := scratchDir()
	if err != nil {
		return err
	}
	defer cleanup()
	window := time.Duration(seconds) * time.Second

	var d detail
	if !traced {
		if d, err = runUntraced(w, seed, window, dir); err != nil {
			return err
		}
		printEndToEnd(os.Stdout, w.name, d)
	} else {
		var spans []span
		if d, spans, err = runTraced(w, seed, window, dir); err != nil {
			return err
		}
		if err := writeTrace(filepath.Join(outRoot, "trace."+w.name+".json"), spans); err != nil {
			return err
		}
		printLayers(os.Stdout, []string{w.name}, map[string]map[string]float64{w.name: d.Layers})
	}
	for _, p := range d.Problems {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", p)
	}
	if detailPath != "" {
		data, err := json.Marshal(d)
		if err != nil {
			return err
		}
		if err := os.WriteFile(detailPath, data, 0o644); err != nil {
			return err
		}
	}
	line := d.resultLine(traced)
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d ops failed their checks", w.name, line.Failed, line.Attempted)
	}
	return nil
}
