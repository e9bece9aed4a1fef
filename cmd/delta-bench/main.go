// Command delta-bench regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment replays its sweep through the
// simulator over internal/experiments' shared setup, writes a CSV under
// -outdir and prints a markdown summary to stdout.
//
//	delta-bench -exp all -scale 0.2 -outdir results/
//	delta-bench -exp fig7b -scale 1            # the full 500k-event run
//	delta-bench -exp seeds -scale 0.1          # Figure 7(b)'s ordering over trace seeds 1–10
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/experiments"
	"github.com/deltacache/delta/internal/sim"
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
	{"seeds", seeds},
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
	// NewSetup reads a zero scale as the paper's full one: refuse it here
	// rather than spend minutes on a typo.
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return fmt.Errorf("-scale must be a positive number, got %v", *scale)
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

// writeCSV creates outdir/name, hands write a buffered writer on it,
// and reports the first error of the writes, the flush and the close.
func writeCSV(outdir, name string, write func(w io.Writer) error) error {
	f, err := os.Create(filepath.Join(outdir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	return errors.Join(err, f.Close())
}

func fig7a(opts experiments.Options, outdir string) error {
	s, err := experiments.NewSetup(opts)
	if err != nil {
		return err
	}
	const name = "fig7a_scatter.csv"
	if err := writeCSV(outdir, name, func(w io.Writer) error {
		return experiments.ScatterCSV(w, s.Events, len(s.Events)/4000)
	}); err != nil {
		return err
	}
	fmt.Printf("scatter written to %s (plot event vs object, colored by kind)\n", filepath.Join(outdir, name))
	return nil
}

// fig7b writes every policy's cumulative traffic along the event
// sequence (Figure 7b).
func fig7b(opts experiments.Options, outdir string) error {
	s, err := experiments.NewSetup(opts)
	if err != nil {
		return err
	}
	results, err := s.RunAll()
	if err != nil {
		return err
	}
	if err := writeCSV(outdir, "fig7b_cumulative.csv", func(w io.Writer) error {
		fmt.Fprintf(w, "event,%s\n", strings.Join(experiments.PolicyNames, ","))
		// All series share sampling points by construction.
		for i, pt := range results["NoCache"].Series {
			fmt.Fprintf(w, "%d", pt.Seq)
			for _, name := range experiments.PolicyNames {
				fmt.Fprintf(w, ",%.3f", results[name].Series[i].Total.GBf())
			}
			fmt.Fprintln(w)
		}
		return nil
	}); err != nil {
		return err
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

// sweepPoint is one point of a five-policy sweep over one option: its
// label in the CSV and in the markdown table, and how it sets the option.
type sweepPoint struct {
	csv, md string
	set     func(*experiments.Options)
}

// policySweep replays the five policies at every point. Each point is
// one CSV row, the full-trace totals then the post-warmup ones, and one
// markdown row of the post-warmup totals (the regime the paper plots).
func policySweep(opts experiments.Options, w io.Writer, csvColumn, mdColumn string, points []sweepPoint) error {
	fmt.Fprintf(w, "%s,%s,%s\n", csvColumn,
		strings.Join(experiments.PolicyNames, ","),
		"post_"+strings.Join(experiments.PolicyNames, ",post_"))
	fmt.Println("| " + mdColumn + " | " + strings.Join(experiments.PolicyNames, " | ") + " |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, pt := range points {
		o := opts
		pt.set(&o)
		s, err := experiments.NewSetup(o)
		if err != nil {
			return err
		}
		results, err := s.RunAll()
		if err != nil {
			return err
		}
		post := experiments.PostWarmup(results, 0.5)
		fmt.Fprint(w, pt.csv)
		fmt.Printf("| %s ", pt.md)
		for _, name := range experiments.PolicyNames {
			fmt.Fprintf(w, ",%.3f", results[name].Total().GBf())
		}
		for _, name := range experiments.PolicyNames {
			fmt.Fprintf(w, ",%.3f", post[name].GBf())
			fmt.Printf("| %v ", post[name])
		}
		fmt.Fprintln(w)
		fmt.Println("|")
	}
	return nil
}

// fig8a varies the number of updates with the queries fixed (Figure 8a).
func fig8a(opts experiments.Options, outdir string) error {
	base := int(250_000 * opts.Scale)
	var points []sweepPoint
	for _, n := range []int{base / 2, 3 * base / 4, base, 5 * base / 4, 3 * base / 2} {
		label := strconv.Itoa(n)
		points = append(points, sweepPoint{label, label, func(o *experiments.Options) { o.NumUpdates = n }})
	}
	fmt.Println("post-warmup totals (the regime the paper plots):")
	return writeCSV(outdir, "fig8a_updates.csv", func(w io.Writer) error {
		return policySweep(opts, w, "updates", "updates", points)
	})
}

// cacheSize sweeps the cache size. The paper reports that VCover halves
// traffic with a cache one-fifth of the server; here that is measured,
// not assumed: at scale 1 and the paper's 30% cache, VCover's
// post-warmup bytes are under half of NoCache's on 7 of 10 trace seeds
// (-exp seeds, seeds.csv), and the cache never binds there (VCover
// evicts nothing; its peak is at most 11% of the survey).
// docs/EXPERIMENTS.md has the ratios.
func cacheSize(opts experiments.Options, outdir string) error {
	var points []sweepPoint
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.5, 1.0} {
		points = append(points, sweepPoint{fmt.Sprintf("%.2f", frac), fmt.Sprintf("%.0f%%", frac*100),
			func(o *experiments.Options) { o.CacheFrac = frac }})
	}
	fmt.Println("post-warmup totals:")
	return writeCSV(outdir, "cachesize.csv", func(w io.Writer) error {
		return policySweep(opts, w, "cacheFrac", "cache fraction", points)
	})
}

// runVCover replays a fresh setup's trace through VCover, configured
// as experiments.Policies configures it.
func runVCover(opts experiments.Options) (*sim.Result, error) {
	s, err := experiments.NewSetup(opts)
	if err != nil {
		return nil, err
	}
	return s.RunOne(core.NewVCover(core.DefaultVCoverConfig()))
}

// fig8b runs VCover at each object-set granularity (Figure 8b): its
// final traffic, and its full cumulative series for the plot.
func fig8b(opts experiments.Options, outdir string) error {
	return writeCSV(outdir, "fig8b_granularity.csv", func(finals io.Writer) error {
		return writeCSV(outdir, "fig8b_series.csv", func(series io.Writer) error {
			fmt.Fprintln(finals, "objects,finalGB")
			fmt.Fprintln(series, "objects,event,totalGB")
			fmt.Println("| objects | VCover final traffic |")
			fmt.Println("|---|---|")
			for _, n := range []int{10, 20, 68, 91, 134, 285, 532} {
				o := opts
				o.NumObjects = n
				res, err := runVCover(o)
				if err != nil {
					return err
				}
				fmt.Fprintf(finals, "%d,%.3f\n", n, res.Total().GBf())
				fmt.Printf("| %d | %v |\n", n, res.Total())
				for _, pt := range res.Series {
					fmt.Fprintf(series, "%d,%d,%.3f\n", n, pt.Seq, pt.Total.GBf())
				}
			}
			return nil
		})
	})
}

// window varies Benefit's window δ (the paper chose 1000 by sweeping).
func window(opts experiments.Options, outdir string) error {
	s, err := experiments.NewSetup(opts)
	if err != nil {
		return err
	}
	return writeCSV(outdir, "benefit_window.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "window,totalGB")
		fmt.Println("| δ (events) | Benefit total traffic |")
		fmt.Println("|---|---|")
		for _, win := range []int{50, 200, 1000, 5000, 20000} {
			res, err := s.RunOne(core.NewBenefit(core.BenefitConfig{Window: win}))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d,%.3f\n", win, res.Total().GBf())
			fmt.Printf("| %d | %v |\n", win, res.Total())
		}
		return nil
	})
}

// warmup measures VCover's warm-up on five seeds: the events before the
// cache first carries half its final load traffic (Section 6.1 reports
// 150k–300k events on the paper's traces).
func warmup(opts experiments.Options, outdir string) error {
	return writeCSV(outdir, "warmup.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "seed,warmupEvents,finalUsedGB")
		fmt.Println("| seed | warm-up events | final cache occupancy |")
		fmt.Println("|---|---|---|")
		for seed := int64(1); seed <= 5; seed++ {
			o := opts
			o.Seed = seed
			res, err := runVCover(o)
			if err != nil {
				return err
			}
			var warm int64
			for _, pt := range res.Series {
				if pt.ObjectLoad*2 >= res.Ledger.ObjectLoad {
					warm = pt.Seq
					break
				}
			}
			fmt.Fprintf(w, "%d,%d,%.3f\n", seed, warm, res.MaxUsed.GBf())
			fmt.Printf("| %d | %d | %v |\n", seed, warm, res.MaxUsed)
		}
		return nil
	})
}

// seeds scores Figure 7(b)'s ordering over trace seeds 1–10 instead of
// one trace (-seed is ignored), at the paper's 30% cache, at 10%, and at
// 5% and 2%, where capacity binds: VCover's peak occupancy stays near a
// tenth of the survey, so at 30% it never evicts and at 10% almost never
// (at scale 0.1 those rows are equal; at scale 1 seed 8 evicts once),
// while at 5% and 2% it does on most seeds, and those rows score its
// evictions. seeds.csv has each policy's full-trace and
// post-warmup bytes, loads, evictions and peak occupancy per seed;
// seeds_wins.csv has the number of seeds each comparison of the
// ordering holds on, and all four together.
func seeds(opts experiments.Options, outdir string) error {
	var trace []int64
	for seed := int64(1); seed <= 10; seed++ {
		trace = append(trace, seed)
	}
	var checks []string
	for _, c := range experiments.Fig7bChecks {
		checks = append(checks, c.Name)
	}
	checks = append(checks, "all")
	return writeCSV(outdir, "seeds.csv", func(runs io.Writer) error {
		return writeCSV(outdir, "seeds_wins.csv", func(wins io.Writer) error {
			fmt.Fprintln(runs, "cacheFrac,seed,policy,totalBytes,postBytes,loads,evictions,maxUsedBytes")
			fmt.Fprintln(wins, "cacheFrac,check,wins,seeds")
			for _, frac := range []float64{0.3, 0.1, 0.05, 0.02} {
				o := opts
				o.CacheFrac = frac
				trials, err := experiments.AcrossSeeds(o, trace)
				if err != nil {
					return err
				}
				fmt.Printf("post-warmup totals at a %.0f%% cache:\n\n", frac*100)
				fmt.Println("| seed | " + strings.Join(experiments.PolicyNames, " | ") + " |")
				fmt.Println("|---|---|---|---|---|---|")
				for _, t := range trials {
					fmt.Printf("| %d ", t.Seed)
					for _, name := range experiments.PolicyNames {
						res := t.Results[name]
						fmt.Fprintf(runs, "%.2f,%d,%s,%d,%d,%d,%d,%d\n", frac, t.Seed, name,
							res.Total(), t.Post[name], res.Loads, res.Evictions, res.MaxUsed)
						fmt.Printf("| %v ", t.Post[name])
					}
					fmt.Println("|")
				}
				fmt.Println()
				for i, n := range experiments.Wins(trials) {
					fmt.Fprintf(wins, "%.2f,%s,%d,%d\n", frac, checks[i], n, len(trials))
					fmt.Printf("%s: %d of %d seeds\n", checks[i], n, len(trials))
				}
				fmt.Println()
			}
			return nil
		})
	})
}
