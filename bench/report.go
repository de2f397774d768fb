package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stat is one gated metric over a result file's repetitions.
type stat struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func statOf(values []float64, unit string) stat {
	q1, q3 := quartiles(values)
	return stat{Median: median(values), Q1: q1, Q3: q3, Unit: unit, Values: values}
}

// hostInfo records where a result file was measured: numbers from two
// hosts are not comparable, and the fsync device decides put.aire.
type hostInfo struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	OSArch      string  `json:"os_arch"`
	Commit      string  `json:"git_commit"`
	WALDir      string  `json:"wal_dir"`
	WALFsyncUS  float64 `json:"wal_fsync_us_mean"`
	HTTPClients int     `json:"http_clients"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

type workloadResult struct {
	Name          string             `json:"name"`
	Why           string             `json:"why"`
	Gated         map[string]stat    `json:"end_to_end"`
	FailRatio     float64            `json:"fail_ratio"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Ungated       map[string]float64 `json:"ungated"`
	Layers        map[string]float64 `json:"per_layer"`
	TraceFile     string             `json:"trace_file"`
	TracedOpsPerS float64            `json:"traced_ops_per_s"`
}

type resultFile struct {
	Host          hostInfo          `json:"host"`
	Seed          int64             `json:"seed"`
	Reps          int               `json:"reps"`
	RunSeconds    int               `json:"run_seconds"`
	TracedSeconds int               `json:"traced_seconds"`
	OpListHash    string            `json:"op_list_hash"`
	Overhead      map[string]string `json:"overhead"`
	Workloads     []workloadResult  `json:"workloads"`
}

func (f *resultFile) workload(name string) *workloadResult {
	for i := range f.Workloads {
		if f.Workloads[i].Name == name {
			return &f.Workloads[i]
		}
	}
	return nil
}

// runChild runs one driver-mode run in a fresh process — the conditions
// the driver measures under, with no heap inherited from an earlier run —
// shows its output (minus the machine-readable last line), and returns
// what it measured. A run whose checks failed still returns its detail.
func runChild(w workload, seed int64, seconds int, traced bool, dir string) (*detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	detailPath := filepath.Join(dir, "detail.json")
	defer os.Remove(detailPath)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace, "-detail", detailPath)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	data, err := os.ReadFile(detailPath)
	if err != nil {
		return nil, fmt.Errorf("%s: %v (%v)", w.name, runErr, err)
	}
	var d detail
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// suiteRun is the one command: every workload untraced reps times, then
// the traced pass, the tables and the result file. Every run is a child
// process.
func suiteRun(seed int64, reps, seconds int, out string) error {
	if reps < 1 || seconds < 1 {
		return fmt.Errorf("-reps and -seconds must be at least 1")
	}
	dir, cleanup, err := scratchDir()
	if err != nil {
		return err
	}
	defer cleanup()
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	res := &resultFile{
		Seed: seed, Reps: reps, RunSeconds: seconds, TracedSeconds: tracedSuiteSeconds,
		OpListHash: opListHash(seed, 1000),
		Host: hostInfo{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: gitCommit(), WALDir: outRoot, HTTPClients: clients(),
		},
	}
	failed := 0

	fmt.Printf("== untraced pass: %d workload(s) x %d run(s) x %d s, seeds %d..%d ==\n",
		len(workloads), reps, seconds, seed, seed+int64(reps)-1)
	runs := map[string][]*detail{}
	for rep := 0; rep < reps; rep++ {
		for _, w := range workloads {
			d, err := runChild(w, seed+int64(rep), seconds, false, dir)
			if err != nil {
				return err
			}
			runs[w.name] = append(runs[w.name], d)
		}
	}
	for _, w := range workloads {
		wr := workloadResult{Name: w.name, Why: w.why, Gated: map[string]stat{}, Ungated: map[string]float64{}}
		collect := func(pick func(*detail) map[string]float64, name string) []float64 {
			var vs []float64
			for _, d := range runs[w.name] {
				if v, ok := pick(d)[name]; ok {
					vs = append(vs, v)
				}
			}
			return vs
		}
		for _, def := range endToEnd {
			wr.Gated[def.Name] = statOf(collect(func(d *detail) map[string]float64 { return d.Gated }, def.Name), def.Unit)
		}
		for name := range runs[w.name][0].Ungated {
			wr.Ungated[name] = median(collect(func(d *detail) map[string]float64 { return d.Ungated }, name))
		}
		for _, d := range runs[w.name] {
			wr.Attempted += d.Attempted
			wr.Failed += d.Failed
		}
		wr.FailRatio = float64(wr.Failed) / float64(max(wr.Attempted, 1))
		failed += wr.Failed
		res.Workloads = append(res.Workloads, wr)
	}

	fmt.Printf("\n== traced pass: %d s per workload (half traced, a quarter untraced on either side), seed %d ==\n", tracedSuiteSeconds, seed)
	layers := map[string]map[string]float64{}
	var names []string
	for _, w := range workloads {
		d, err := runChild(w, seed, tracedSuiteSeconds, true, dir)
		if err != nil {
			return err
		}
		wr := res.workload(w.name)
		wr.Layers = d.Layers
		wr.TracedOpsPerS = d.Gated["ops_per_s"]
		// The child wrote the trace under outRoot; keep it beside the result.
		wr.TraceFile = filepath.Join(filepath.Dir(out), "trace."+w.name+".json")
		if from := filepath.Join(outRoot, "trace."+w.name+".json"); from != wr.TraceFile {
			if err := os.Rename(from, wr.TraceFile); err != nil {
				return err
			}
		}
		failed += d.Failed
		layers[w.name] = d.Layers
		names = append(names, w.name)
	}
	res.Host.WALFsyncUS = layers["put.aire"]["wal.fsync_us"]

	fmt.Println("\n== end-to-end metrics (median, quartiles and spread over the runs; tracing off) ==")
	printSummary(os.Stdout, res)
	fmt.Println("\n== Aire overhead (every ratio with its base) ==")
	res.Overhead = overheadTable(os.Stdout, res)
	fmt.Println("\n== per-layer metrics (traced pass) ==")
	printLayers(os.Stdout, names, layers)

	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%d bytes) and %d trace files beside it\n", out, len(data), len(names))
	if failed > 0 {
		return fmt.Errorf("%d op(s) failed their correctness checks", failed)
	}
	return nil
}

// printEndToEnd prints one run's metrics by name, with units.
func printEndToEnd(w io.Writer, name string, d detail) {
	fmt.Fprintf(w, "%-14s", name)
	for _, def := range endToEnd {
		fmt.Fprintf(w, " %s=%.6g %s", def.Name, d.Gated[def.Name], def.Unit)
	}
	u := d.Ungated
	fmt.Fprintf(w, " fail_ratio=%g failed/attempted (%d/%d) | n=%.0f ptail_ms=%.4g (p%.6g) alloc_bytes_per_op=%.0f allocs_per_op=%.1f",
		u["fail_ratio"], d.Failed, d.Attempted, u["n"], u["ptail_ms"], u["ptail_pct"], u["alloc_bytes_per_op"], u["allocs_per_op"])
	if v, ok := u["bare_ops_per_s"]; ok {
		fmt.Fprintf(w, " bare_ops_per_s=%.6g", v)
	}
	fmt.Fprintln(w)
}

func printSummary(w io.Writer, res *resultFile) {
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %14s %8s %s\n", "workload", "metric", "median", "q1", "q3", "spread", "unit")
	for _, wr := range res.Workloads {
		for _, d := range endToEnd {
			s := wr.Gated[d.Name]
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %14.6g %7.1f%% %s\n", wr.Name, d.Name, s.Median, s.Q1, s.Q3, 100*s.spread(), d.Unit)
		}
		fmt.Fprintf(w, "%-14s %-20s %14g %29s %8s failed/attempted (%d/%d)\n", wr.Name, "fail_ratio", wr.FailRatio, "", "", wr.Failed, wr.Attempted)
		u := wr.Ungated
		fmt.Fprintf(w, "%-14s   ungated: n=%.0f ptail_ms=%.4g at p%.6g, alloc_bytes_per_op=%.0f, allocs_per_op=%.1f\n",
			wr.Name, u["n"], u["ptail_ms"], u["ptail_pct"], u["alloc_bytes_per_op"], u["allocs_per_op"])
	}
}

// overheadTable prints what Aire costs against its bare twin, each ratio
// with both of its terms, and returns the same lines for the result file.
func overheadTable(w io.Writer, res *resultFile) map[string]string {
	out := map[string]string{}
	row := func(name string, bare, aire float64, base string) {
		if bare <= 0 || aire <= 0 {
			return
		}
		line := fmt.Sprintf("overhead_ratio=%.3f (bare %.6g ops/s ÷ Aire %.6g ops/s; %s)", bare/aire, bare, aire, base)
		out[name] = line
		fmt.Fprintf(w, "%-14s %s\n", name, line)
	}
	if a, b := res.workload("put.aire"), res.workload("put.bare"); a != nil && b != nil {
		row("put", b.Gated["ops_per_s"].Median, a.Gated["ops_per_s"].Median, "put.bare vs put.aire, separate runs")
	}
	for _, name := range []string{"askbot.read", "askbot.write"} {
		if wr := res.workload(name); wr != nil {
			row(name, wr.Ungated["bare_ops_per_s"], wr.Gated["ops_per_s"].Median, "interleaved episodes of the same runs")
		}
	}
	return out
}

// printLayers prints the per-layer table: one row per metric, one column
// per workload.
func printLayers(w io.Writer, names []string, layers map[string]map[string]float64) {
	fmt.Fprintf(w, "%-28s %-9s", "layer metric", "unit")
	for _, n := range names {
		fmt.Fprintf(w, " %13s", n)
	}
	fmt.Fprintln(w)
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-28s %-9s", d.Name, d.Unit)
		for _, n := range names {
			fmt.Fprintf(w, " %13.5g", layers[n][d.Name])
		}
		fmt.Fprintln(w)
	}
}

// ---- compare -----------------------------------------------------------

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict judges b against a for one gated metric: regressed when b's
// median is worse than a's by more than the bound; otherwise unresolved
// when either side's run-to-run spread is wider than the bound (the runs
// cannot show the metric held); otherwise ok.
func verdict(d metricDef, a, b stat) (worse float64, v string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
		if d.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case worse > d.Bound:
		return worse, "regressed"
	case a.spread() > d.Bound || b.spread() > d.Bound:
		return worse, "unresolved"
	}
	return worse, "ok"
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  commit %s, %d cpu, seed %d, %d x %d s\n", pathA, a.Host.Commit, a.Host.NumCPU, a.Seed, a.Reps, a.RunSeconds)
	fmt.Fprintf(w, "B: %s  commit %s, %d cpu, seed %d, %d x %d s\n", pathB, b.Host.Commit, b.Host.NumCPU, b.Seed, b.Reps, b.RunSeconds)
	if a.RunSeconds != b.RunSeconds || a.Host.NumCPU != b.Host.NumCPU {
		fmt.Fprintln(w, "warning: run length or host differs; the rows below compare unlike things")
	}
	fmt.Fprintf(w, "%-14s %-20s %13s %13s %9s %7s %9s %9s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "spread A", "spread B", "verdict")
	counts := map[string]int{}
	names := make([]string, 0, len(a.Workloads))
	for _, wr := range a.Workloads {
		names = append(names, wr.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		wa, wb := a.workload(name), b.workload(name)
		if wb == nil {
			fmt.Fprintf(w, "%-14s missing from B\n", name)
			counts["regressed"]++
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.Gated[d.Name], wb.Gated[d.Name]
			worse, v := verdict(d, sa, sb)
			counts[v]++
			fmt.Fprintf(w, "%-14s %-20s %13.6g %13.6g %+8.1f%% %6.0f%% %8.1f%% %8.1f%%  %s\n",
				name, d.Name, sa.Median, sb.Median, 100*worse, 100*d.Bound, 100*sa.spread(), 100*sb.spread(), v)
		}
		v := "ok"
		if wb.FailRatio > 0 {
			v = "regressed"
		}
		counts[v]++
		fmt.Fprintf(w, "%-14s %-20s %13g %13g %9s %7s %9s %9s  %s\n", name, "fail_ratio", wa.FailRatio, wb.FailRatio, "", "0", "", "", v)
	}
	fmt.Fprintf(w, "%d ok, %d unresolved, %d regressed\n", counts["ok"], counts["unresolved"], counts["regressed"])
	if counts["regressed"] > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", counts["regressed"])
	}
	return nil
}
