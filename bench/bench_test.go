package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// toyOps keeps the smoke test's runs to a second or so in total.
var toyOps = map[string]int{
	"put.aire": 40, "put.bare": 40, "askbot.read": 30, "askbot.write": 200, "repair.wave": 2, "repair.askbot": 1,
}

func toyRun(t *testing.T, w workload, seed int64, tr *tracer) *runResult {
	t.Helper()
	r, err := w.run(runConfig{seed: seed, window: time.Minute, maxOps: toyOps[w.name], setups: 1, outDir: t.TempDir(), tr: tr})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if r.failed != 0 || r.attempted != toyOps[w.name] {
		t.Fatalf("%s: attempted %d (want %d), failed %d: %v", w.name, r.attempted, toyOps[w.name], r.failed, r.problems)
	}
	return r
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestContractMatchesCode fails when BENCHMARK.json and the tables this
// package measures and judges with have drifted apart.
func TestContractMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, code default is %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %q %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at toy size, traced,
// and checks that the result lines carry exactly the contract's names and
// units, that the per-layer predictions that are exact hold, and that the
// checks pass.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		tr := newTracer()
		r := toyRun(t, w, 7, tr)
		m := detailOf(r)
		m.Layers = layersOf(r, tr.snapshot(), w.entry)

		for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
			line := m.resultLine(traced)
			if !line.Correct || len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: correct=%v, %d metrics, want %d", w.name, traced, line.Correct, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				if got, ok := line.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s: metric %s: got %+v, want unit %s", w.name, d.Name, got, d.Unit)
				}
			}
		}
		for _, d := range endToEnd {
			if m.Gated[d.Name] <= 0 {
				t.Errorf("%s: %s = %v, must be positive", w.name, d.Name, m.Gated[d.Name])
			}
		}

		http := w.name == "put.aire" || w.name == "put.bare" || w.name == "repair.wave"
		usesWAL := w.name == "put.aire" || w.name == "repair.wave"
		if got := m.Layers["transport.calls_per_op"]; !http && got != 0 || w.entry == hubName && w.name != "repair.wave" && got != 4 {
			t.Errorf("%s: transport.calls_per_op = %v", w.name, got)
		}
		if got := m.Layers["wal.fsyncs_per_op"] + m.Layers["wal.bytes_per_op"]; usesWAL != (got > 0) {
			t.Errorf("%s: wal fsyncs+bytes per op = %v", w.name, got)
		}
		if w.name == "repair.wave" {
			if got := m.Layers["pump.carriers_per_wave"]; got != 3*(waveDependents+1) {
				t.Errorf("pump.carriers_per_wave = %v, want %d", got, 3*(waveDependents+1))
			}
			if m.Layers["pump.sojourn_ms"] <= 0 || m.Layers["deliver.useful_ratio"] <= 0 {
				t.Errorf("repair.wave pump metrics: %v", m.Layers)
			}
		}
		if (w.name == "put.bare") != (m.Layers["bare.self_us"] > 0) {
			t.Errorf("%s: bare.self_us = %v", w.name, m.Layers["bare.self_us"])
		}
	}
}

// TestSeedDeterminism: the same seed gives the same op list, another seed
// another; and on the single-caller in-process workloads the bytes stored
// per op repeat exactly, so a later change to them is a change in the
// system and not noise.
func TestSeedDeterminism(t *testing.T) {
	if a, b := opListHash(3, 500), opListHash(3, 500); a != b {
		t.Errorf("same seed, different op lists: %s vs %s", a, b)
	}
	if a, b := opListHash(3, 500), opListHash(4, 500); a == b {
		t.Errorf("different seeds, same op list %s", a)
	}
	for _, name := range []string{"askbot.read", "askbot.write", "repair.askbot"} {
		w, _ := findWorkload(name)
		a, b := toyRun(t, w, 3, nil), toyRun(t, w, 3, nil)
		if a.stored != b.stored || a.stored.total() <= 0 {
			t.Errorf("%s: stored bytes %+v then %+v", name, a.stored, b.stored)
		}
	}
}

func TestStats(t *testing.T) {
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,20], n=4) = [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{9, 1, 2, 3, 4, 5, 6, 7, 8, 20})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// 100 ops, one per ms, with a 1 s stall in the middle: the stall must
	// not decide the rate.
	var s []sample
	var clock int64
	for i := 0; i < 100; i++ {
		clock += int64(time.Millisecond)
		if i == 50 {
			clock += int64(time.Second)
		}
		s = append(s, sample{end: clock, lat: int64(time.Millisecond)})
	}
	if r := steadyRate(s); r < 999 || r > 1001 {
		t.Errorf("steadyRate = %v, want 1000", r)
	}
	if st := summariseLatency(s); st.N != 100 || st.PtailPct != 90 {
		t.Errorf("latency stats %+v", st)
	}
	d := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		a, b stat
		want string
	}{
		{stat{Median: 100, Q1: 99, Q3: 101}, stat{Median: 95, Q1: 94, Q3: 96}, "ok"},
		{stat{Median: 100, Q1: 99, Q3: 101}, stat{Median: 85, Q1: 84, Q3: 86}, "regressed"},
		{stat{Median: 100, Q1: 90, Q3: 110}, stat{Median: 95, Q1: 94, Q3: 96}, "unresolved"},
	} {
		if _, got := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a.Median, c.b.Median, got, c.want)
		}
	}
}
