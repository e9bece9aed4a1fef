// Command delta-bench regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment writes a CSV under -outdir and
// prints a markdown summary to stdout.
//
//	delta-bench -exp all -scale 0.2 -outdir results/
//	delta-bench -exp fig7b -scale 1            # the full 500k-event run
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/deltacache/delta/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "delta-bench:", err)
		os.Exit(1)
	}
}

// experiment is one -exp value: it writes its CSVs under outdir and
// prints its summary to stdout.
type experiment struct {
	name string
	run  func(opts experiments.Options, outdir string) error
}

// suite is every experiment, in the order -exp all runs them.
var suite = []experiment{
	{"fig7a", fig7a},
	{"fig7b", fig7b},
	{"fig8a", fig8a},
	{"fig8b", fig8b},
	{"cachesize", cacheSize},
	{"window", window},
	{"warmup", warmup},
}

// expNames is the -exp vocabulary: every experiment, then "all".
func expNames() string {
	names := make([]string, 0, len(suite)+1)
	for _, e := range suite {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), "|")
}

// selectExperiments resolves an -exp value to the experiments it runs.
func selectExperiments(name string) ([]experiment, error) {
	if name == "all" {
		return suite, nil
	}
	for _, e := range suite {
		if e.name == name {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown -exp %q (valid: %s)", name, expNames())
}

func run(args []string) error {
	fs := flag.NewFlagSet("delta-bench", flag.ExitOnError)
	var (
		exp    = fs.String("exp", "all", "experiment: "+expNames())
		scale  = fs.Float64("scale", 0.2, "workload scale (1 = the paper's 500k events)")
		outdir = fs.String("outdir", "results", "directory for CSV output")
		seed   = fs.Int64("seed", 0, "workload seed (0 = reference trace)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected, err := selectExperiments(*exp)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}
	opts := experiments.Options{Scale: *scale, Seed: *seed}
	for _, e := range selected {
		start := time.Now()
		fmt.Printf("## %s\n", e.name)
		if err := e.run(opts, *outdir); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("(%s in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func csvFile(outdir, name string) (*os.File, error) {
	return os.Create(filepath.Join(outdir, name))
}

func fig7a(opts experiments.Options, outdir string) error {
	s, err := experiments.NewSetup(opts)
	if err != nil {
		return err
	}
	f, err := csvFile(outdir, "fig7a_scatter.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiments.Fig7a(s, f); err != nil {
		return err
	}
	fmt.Printf("scatter written to %s (plot event vs object, colored by kind)\n", f.Name())
	return nil
}

func fig7b(opts experiments.Options, outdir string) error {
	s, err := experiments.NewSetup(opts)
	if err != nil {
		return err
	}
	rows, results, err := experiments.Fig7b(s)
	if err != nil {
		return err
	}
	f, err := csvFile(outdir, "fig7b_cumulative.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "event,%s\n", strings.Join(experiments.PolicyNames, ","))
	for _, row := range rows {
		fmt.Fprintf(f, "%d", row.Seq)
		for _, name := range experiments.PolicyNames {
			fmt.Fprintf(f, ",%.3f", row.Totals[name].GBf())
		}
		fmt.Fprintln(f)
	}

	post := experiments.PostWarmup(results, 0.5)
	fmt.Println("| policy | full-trace traffic | post-warmup traffic |")
	fmt.Println("|---|---|---|")
	for _, name := range experiments.PolicyNames {
		fmt.Printf("| %s | %v | %v |\n", name, results[name].Total(), post[name])
	}
	vc, nc := post["VCover"], post["NoCache"]
	if nc > 0 {
		fmt.Printf("\nVCover/NoCache post-warmup = %.2f (paper: ~0.5)\n", float64(vc)/float64(nc))
	}
	return nil
}

func fig8a(opts experiments.Options, outdir string) error {
	base := int(250_000 * opts.Scale)
	counts := []int{base / 2, 3 * base / 4, base, 5 * base / 4, 3 * base / 2}
	rows, err := experiments.Fig8a(opts, counts)
	if err != nil {
		return err
	}
	f, err := csvFile(outdir, "fig8a_updates.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "updates,%s,%s\n",
		strings.Join(experiments.PolicyNames, ","),
		"post_"+strings.Join(experiments.PolicyNames, ",post_"))
	fmt.Println("post-warmup totals (the regime the paper plots):")
	fmt.Println("| updates | " + strings.Join(experiments.PolicyNames, " | ") + " |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, row := range rows {
		fmt.Fprintf(f, "%d", row.NumUpdates)
		fmt.Printf("| %d ", row.NumUpdates)
		for _, name := range experiments.PolicyNames {
			fmt.Fprintf(f, ",%.3f", row.Totals[name].GBf())
		}
		for _, name := range experiments.PolicyNames {
			fmt.Fprintf(f, ",%.3f", row.PostTotals[name].GBf())
			fmt.Printf("| %v ", row.PostTotals[name])
		}
		fmt.Fprintln(f)
		fmt.Println("|")
	}
	return nil
}

func fig8b(opts experiments.Options, outdir string) error {
	counts := []int{10, 20, 68, 91, 134, 285, 532}
	rows, err := experiments.Fig8b(opts, counts)
	if err != nil {
		return err
	}
	f, err := csvFile(outdir, "fig8b_granularity.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "objects,finalGB")
	fmt.Println("| objects | VCover final traffic |")
	fmt.Println("|---|---|")
	for _, row := range rows {
		fmt.Fprintf(f, "%d,%.3f\n", row.NumObjects, row.Final.GBf())
		fmt.Printf("| %d | %v |\n", row.NumObjects, row.Final)
	}
	// Full series per granularity for the cumulative plot.
	fs, err := csvFile(outdir, "fig8b_series.csv")
	if err != nil {
		return err
	}
	defer fs.Close()
	fmt.Fprintln(fs, "objects,event,totalGB")
	for _, row := range rows {
		for _, pt := range row.Series {
			fmt.Fprintf(fs, "%d,%d,%.3f\n", row.NumObjects, pt.Seq, pt.Total.GBf())
		}
	}
	return nil
}

func cacheSize(opts experiments.Options, outdir string) error {
	fracs := []float64{0.1, 0.2, 0.3, 0.5, 1.0}
	rows, err := experiments.CacheSize(opts, fracs)
	if err != nil {
		return err
	}
	f, err := csvFile(outdir, "cachesize.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "cacheFrac,%s,%s\n",
		strings.Join(experiments.PolicyNames, ","),
		"post_"+strings.Join(experiments.PolicyNames, ",post_"))
	fmt.Println("post-warmup totals:")
	fmt.Println("| cache fraction | " + strings.Join(experiments.PolicyNames, " | ") + " |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, row := range rows {
		fmt.Fprintf(f, "%.2f", row.CacheFrac)
		fmt.Printf("| %.0f%% ", row.CacheFrac*100)
		for _, name := range experiments.PolicyNames {
			fmt.Fprintf(f, ",%.3f", row.Totals[name].GBf())
		}
		for _, name := range experiments.PolicyNames {
			fmt.Fprintf(f, ",%.3f", row.PostTotals[name].GBf())
			fmt.Printf("| %v ", row.PostTotals[name])
		}
		fmt.Fprintln(f)
		fmt.Println("|")
	}
	return nil
}

func window(opts experiments.Options, outdir string) error {
	windows := []int{50, 200, 1000, 5000, 20000}
	rows, err := experiments.BenefitWindowSweep(opts, windows)
	if err != nil {
		return err
	}
	f, err := csvFile(outdir, "benefit_window.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "window,totalGB")
	fmt.Println("| δ (events) | Benefit total traffic |")
	fmt.Println("|---|---|")
	for _, row := range rows {
		fmt.Fprintf(f, "%d,%.3f\n", row.Window, row.Total.GBf())
		fmt.Printf("| %d | %v |\n", row.Window, row.Total)
	}
	return nil
}

func warmup(opts experiments.Options, outdir string) error {
	rows, err := experiments.Warmup(opts, []int64{1, 2, 3, 4, 5})
	if err != nil {
		return err
	}
	f, err := csvFile(outdir, "warmup.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "seed,warmupEvents,finalUsedGB")
	fmt.Println("| seed | warm-up events | final cache occupancy |")
	fmt.Println("|---|---|---|")
	for _, row := range rows {
		fmt.Fprintf(f, "%d,%d,%.3f\n", row.Seed, row.WarmupEvents, row.FinalUsed.GBf())
		fmt.Printf("| %d | %d | %v |\n", row.Seed, row.WarmupEvents, row.FinalUsed)
	}
	return nil
}
