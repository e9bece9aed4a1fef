package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestSmoke runs all four workloads, timed and traced, at a hundredth of
// their size: every metric BENCHMARK.json names must come out, and every
// check that does not depend on scale must pass.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	opts := options{seed: 2, scale: 0.01, reps: 1, out: out}
	for i := range workloads {
		opts.workloads = append(opts.workloads, &workloads[i])
	}
	ok, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a correctness check failed; see CHECK FAILED in the output")
	}

	var res result
	readJSON(t, filepath.Join(out, "result.json"), &res)
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		if wr == nil {
			t.Errorf("%s: missing from result.json", w.name)
			continue
		}
		for _, def := range endToEnd {
			if s, ok := wr.EndToEnd[def.name]; !ok || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.name, def.name, s.Median)
			}
		}
		for _, def := range perLayer {
			if _, ok := wr.PerLayer[def.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, def.name)
			}
		}
		if wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, wr.Attempted, wr.Failed)
		}
		var tf traceFile
		readJSON(t, filepath.Join(out, "trace-"+w.name+".json"), &tf)
		if len(tf.Queries) == 0 || len(tf.Queries[0].Hops) == 0 {
			t.Errorf("%s: trace file holds no joined query spans", w.name)
		}
	}

	// A run must compare as "same" with itself, and as worse with a
	// copy of itself at half the throughput.
	prev := filepath.Join(out, "result.json")
	if same, err := compare(prev, &res); err != nil || !same {
		t.Errorf("compare with itself: same=%v err=%v", same, err)
	}
	for _, wr := range res.Workloads {
		s := wr.EndToEnd["queries_per_s"]
		s.Median, s.Low, s.High = s.Median/2, s.Low/2, s.High/2
		wr.EndToEnd["queries_per_s"] = s
	}
	if same, err := compare(prev, &res); err != nil || same {
		t.Errorf("compare with a run at half the throughput: same=%v err=%v", same, err)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json against the tables the program
// prints from, so the driver's contract and the benchmark cannot drift
// apart.
func TestBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var contract struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &contract)

	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := contract.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, got, w.name, w.why)
		}
	}
	same := func(kind string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program has %d", len(listed), kind, len(defs))
		}
		for i, def := range defs {
			want := metric{def.name, def.unit, def.better, def.bound}
			if listed[i] != want {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, listed[i], want)
			}
		}
	}
	same("end_to_end", contract.EndToEnd, endToEnd)
	same("per_layer", contract.PerLayer, perLayer)
}

func TestJudge(t *testing.T) {
	higher := metricDef{name: "queries_per_s", better: "higher", bound: 0.1}
	lower := metricDef{name: "query_p50_us", better: "lower", bound: 0.1}
	steady := func(v float64) stat { return stat{Median: v, Low: v * 0.99, High: v * 1.01} }
	noisy := func(v float64) stat { return stat{Median: v, Low: v * 0.9, High: v * 1.1} }
	for _, tc := range []struct {
		def       metricDef
		prev, cur stat
		want      string
	}{
		{higher, steady(100), steady(105), "same"},
		{higher, steady(100), steady(120), "better"},
		{higher, steady(100), steady(80), "worse"},
		{lower, steady(100), steady(80), "better"},
		{lower, steady(100), steady(120), "worse"},
		{higher, noisy(100), steady(120), "unresolved"},
		{higher, steady(100), noisy(105), "unresolved"},
		// A regression beyond the bound is a regression however noisy.
		{higher, noisy(100), noisy(80), "worse"},
	} {
		if got := judge(tc.def, tc.prev, tc.cur); got != tc.want {
			t.Errorf("judge(%s, %v → %v) = %s, want %s", tc.def.name, tc.prev.Median, tc.cur.Median, got, tc.want)
		}
	}
}

func TestShorth(t *testing.T) {
	for _, tc := range []struct {
		sample    []float64
		low, high float64
	}{
		{[]float64{5}, 5, 5},
		{[]float64{4, 9}, 4, 9},
		{[]float64{4, 8, 9}, 8, 9},
		{[]float64{1, 2, 3, 10, 20}, 1, 3},
	} {
		if low, high := shorth(tc.sample); low != tc.low || high != tc.high {
			t.Errorf("shorth(%v) = %v–%v, want %v–%v", tc.sample, low, high, tc.low, tc.high)
		}
	}
}

// TestComposite pins the slice-wise median: a stall in one repetition
// costs neither throughput nor tail.
func TestComposite(t *testing.T) {
	clean := func() *pass {
		p := &pass{slices: make([]slice, passSlices)}
		for k := range p.slices {
			p.slices[k] = slice{wall: 10 * time.Millisecond, lats: slices.Repeat([]time.Duration{time.Millisecond}, 10)}
		}
		return p
	}
	stalled := clean()
	stalled.slices[3] = slice{wall: time.Second, lats: slices.Repeat([]time.Duration{100 * time.Millisecond}, 10)}
	got := composite([]*pass{clean(), stalled, clean()})
	if want := (timing{queriesPerS: 1000, p50us: 1000, p95us: 1000}); !near(got.queriesPerS, want.queriesPerS) ||
		!near(got.p50us, want.p50us) || !near(got.p95us, want.p95us) {
		t.Errorf("composite = %+v, want %+v", got, want)
	}
	if alone := composite([]*pass{stalled}); alone.queriesPerS > 800 || alone.p95us < 4000 {
		t.Errorf("the stalled repetition alone = %+v, want its stall to show", alone)
	}
}

func near(got, want float64) bool { return got > want*0.999 && got < want*1.001 }
