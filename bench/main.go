// Command bench is the repository's one benchmark. It stands up live
// Delta topologies in this process over loopback TCP, replays four
// generated workloads through them in a closed loop, and prints every
// end-to-end and per-layer metric by name with its unit, checking the
// answers as it goes. It measures every layer from outside, through the
// packages' public functions and counters. See README.md.
//
//	go run -C bench . [-workload name] [-seed n] [-reps n] [-scale x | -seconds s] [-trace 0|1] [-out dir] [-compare prev.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// secondsPerRepetition is what one timed pass takes at -scale 1 on the
// two-core box the workloads were sized on. -seconds divides by it to
// pick the scale, so a run's inputs depend on its flags alone and are
// the same on any two commits under comparison — a pass that stopped at
// a deadline would replay further on the faster commit, and hit rate
// and traffic would move with speed.
const secondsPerRepetition = 10.0

type options struct {
	seed      int64
	scale     float64
	reps      int
	out       string
	trace     string // "0": timed repetitions only, "1": traced repetition only, "": both
	compare   string
	workloads []*workloadSpec
}

// stat summarizes one end-to-end metric over a workload's repetitions.
// Low–High is its spread: the shortest interval that holds more than
// half of the repetitions' values. Like the composite pass, it shrugs
// off the one repetition in three that a stall of the machine ruins,
// which min–max would report as noise in every run on a shared box.
type stat struct {
	Median float64 `json:"median"`
	Low    float64 `json:"low"`
	High   float64 `json:"high"`
	Unit   string  `json:"unit"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadResult struct {
	EndToEnd  map[string]stat  `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`

	samples map[string][]float64
	passes  []*pass
}

// result is bench/out/result.json, which -compare reads back.
type result struct {
	Seed      int64                      `json:"seed"`
	Scale     float64                    `json:"scale"`
	Reps      int                        `json:"reps"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	ok, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		opts     options
		workload = fs.String("workload", "", "run one workload (default: all four, round-robin)")
		seconds  = fs.Float64("seconds", 0, "total timed seconds per workload, split over -reps; sets -scale")
	)
	fs.Int64Var(&opts.seed, "seed", 2, "workload seed: the only input to generation")
	fs.IntVar(&opts.reps, "reps", 3, "timed repetitions per workload, each on a fresh topology")
	fs.Float64Var(&opts.scale, "scale", 0, "multiply every event count (default 1; the smoke test uses 0.01)")
	fs.StringVar(&opts.trace, "trace", "", "0: timed repetitions only; 1: the traced repetition only; default both")
	fs.StringVar(&opts.out, "out", "out", "directory for result.json and trace-<workload>.json")
	fs.StringVar(&opts.compare, "compare", "", "a saved result.json to hold this run's medians against")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	switch {
	case opts.reps < 1:
		return opts, fmt.Errorf("-reps must be at least 1")
	case opts.trace != "" && opts.trace != "0" && opts.trace != "1":
		return opts, fmt.Errorf("-trace takes 0 or 1")
	case opts.scale > 0 && *seconds > 0:
		return opts, fmt.Errorf("-scale and -seconds both set the trace length; give one")
	case *seconds > 0:
		opts.scale = *seconds / (float64(opts.reps) * secondsPerRepetition)
	case opts.scale <= 0:
		opts.scale = 1
	}
	if *workload == "" {
		for i := range workloads {
			opts.workloads = append(opts.workloads, &workloads[i])
		}
		return opts, nil
	}
	w, err := lookupWorkload(*workload)
	if err != nil {
		return opts, err
	}
	opts.workloads = []*workloadSpec{w}
	return opts, nil
}

// run executes the benchmark and reports whether every check passed and
// no compared metric got worse.
func run(opts options) (bool, error) {
	res := &result{Seed: opts.seed, Scale: opts.scale, Reps: opts.reps, Workloads: map[string]*workloadResult{}}
	for _, w := range opts.workloads {
		res.Workloads[w.name] = &workloadResult{samples: map[string][]float64{}}
	}
	add := func(w *workloadSpec, rep *repetition) {
		wr := res.Workloads[w.name]
		wr.Attempted += rep.attempted
		wr.Failed += rep.failed
		for _, p := range rep.problems {
			if !slices.Contains(wr.Problems, p) {
				wr.Problems = append(wr.Problems, p)
			}
		}
	}
	// Timed repetitions go round-robin across workloads, so that drift
	// of the machine falls on all of them alike. A traced-only run still
	// needs one, as the throughput tracing overhead is held against.
	reps := opts.reps
	if opts.trace == "1" {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		for _, w := range opts.workloads {
			rep, err := runRepetition(w, opts, false, 0)
			if err != nil {
				return false, err
			}
			add(w, rep)
			wr := res.Workloads[w.name]
			for name, v := range rep.endToEnd {
				wr.samples[name] = append(wr.samples[name], v)
			}
			wr.passes = append(wr.passes, rep.timed)
		}
	}
	for _, w := range opts.workloads {
		wr := res.Workloads[w.name]
		// The timing metrics are those of the composite pass; the others
		// are medians over the repetitions. The spread is the whole
		// repetitions' in both cases.
		all := composite(wr.passes)
		timing := map[string]float64{
			"queries_per_s": all.queriesPerS,
			"query_p50_us":  all.p50us,
			"query_p95_us":  all.p95us,
		}
		if opts.trace != "1" {
			wr.EndToEnd = map[string]stat{}
			for _, def := range endToEnd {
				s := slices.Clone(wr.samples[def.name])
				slices.Sort(s)
				st := stat{Median: medianOf(s), Unit: def.unit}
				st.Low, st.High = shorth(s)
				if v, ok := timing[def.name]; ok {
					st.Median = v
				}
				wr.EndToEnd[def.name] = st
			}
		}
		if opts.trace == "0" {
			continue
		}
		rep, err := runRepetition(w, opts, true, all.queriesPerS)
		if err != nil {
			return false, err
		}
		add(w, rep)
		wr.PerLayer = map[string]value{}
		for _, def := range perLayer {
			v, ok := rep.perLayer[def.name]
			if !ok {
				return false, fmt.Errorf("%s: traced repetition did not measure %s", w.name, def.name)
			}
			wr.PerLayer[def.name] = value{Value: v, Unit: def.unit}
		}
	}

	ok := true
	for _, w := range opts.workloads {
		wr := res.Workloads[w.name]
		printWorkload(w, wr)
		ok = ok && len(wr.Problems) == 0
	}
	if opts.out != "" {
		if err := writeJSON(filepath.Join(opts.out, "result.json"), res, true); err != nil {
			return false, err
		}
	}
	if opts.compare != "" {
		same, err := compare(opts.compare, res)
		if err != nil {
			return false, err
		}
		ok = ok && same
	}
	if len(opts.workloads) == 1 {
		if err := printContractLine(res.Workloads[opts.workloads[0].name]); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// medianOf reads the median of a sorted sample.
func medianOf(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// shorth returns the shortest interval that holds more than half of a
// sorted sample.
func shorth(sorted []float64) (low, high float64) {
	k := len(sorted)/2 + 1
	low, high = sorted[0], sorted[k-1]
	for i := 1; i+k <= len(sorted); i++ {
		if sorted[i+k-1]-sorted[i] < high-low {
			low, high = sorted[i], sorted[i+k-1]
		}
	}
	return low, high
}

func printWorkload(w *workloadSpec, wr *workloadResult) {
	fmt.Printf("\n%s — %s\n", w.name, w.why)
	for _, def := range endToEnd {
		if s, ok := wr.EndToEnd[def.name]; ok {
			fmt.Printf("  %-34s %14.4f %-6s spread %.4f–%.4f\n", def.name, s.Median, s.Unit, s.Low, s.High)
		}
	}
	for _, def := range perLayer {
		if v, ok := wr.PerLayer[def.name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", def.name, v.Value, v.Unit)
		}
	}
	fmt.Printf("  attempted %d, failed %d\n", wr.Attempted, wr.Failed)
	for _, p := range wr.Problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// printContractLine ends a single-workload run with the one JSON object
// BENCHMARK.json's driver reads: the end-to-end medians of a timed run,
// or the per-layer metrics of a traced one.
func printContractLine(wr *workloadResult) error {
	metrics := map[string]value{}
	for name, s := range wr.EndToEnd {
		metrics[name] = value{Value: s.Median, Unit: s.Unit}
	}
	if len(wr.PerLayer) > 0 {
		metrics = wr.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(wr.Problems) == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// compare holds this run's medians against a saved run's, one row per
// workload, by the bounds of the end-to-end metrics. A metric whose
// repetitions spread wider than its bound, on either side, is
// unresolved: the runs cannot tell a change of that size from noise.
func compare(prevPath string, cur *result) (bool, error) {
	data, err := os.ReadFile(prevPath)
	if err != nil {
		return false, err
	}
	var prev result
	if err := json.Unmarshal(data, &prev); err != nil {
		return false, fmt.Errorf("%s: %w", prevPath, err)
	}
	if prev.Seed != cur.Seed || prev.Scale != cur.Scale {
		return false, fmt.Errorf("%s ran seed %d scale %g, this run seed %d scale %g: not comparable",
			prevPath, prev.Seed, prev.Scale, cur.Seed, cur.Scale)
	}
	fmt.Printf("\ncompared with %s\n", prevPath)
	ok := true
	for _, w := range workloads {
		p, c := prev.Workloads[w.name], cur.Workloads[w.name]
		if p == nil || c == nil || p.EndToEnd == nil || c.EndToEnd == nil {
			continue
		}
		var cells []string
		for _, def := range endToEnd {
			verdict := judge(def, p.EndToEnd[def.name], c.EndToEnd[def.name])
			ok = ok && verdict != "worse"
			cells = append(cells, fmt.Sprintf("%s %s (%.4g→%.4g)", def.name, verdict,
				p.EndToEnd[def.name].Median, c.EndToEnd[def.name].Median))
		}
		fmt.Printf("  %-12s %s\n", w.name, strings.Join(cells, "; "))
	}
	return ok, nil
}

func judge(def metricDef, prev, cur stat) string {
	margin := def.bound * prev.Median
	gain := cur.Median - prev.Median
	if def.better == "lower" {
		gain = -gain
	}
	switch {
	case gain < -margin:
		return "worse"
	case prev.High-prev.Low > margin || cur.High-cur.Low > margin:
		return "unresolved"
	case gain > margin:
		return "better"
	default:
		return "same"
	}
}
