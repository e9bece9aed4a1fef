package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/deltacache/delta/internal/experiments"
)

// TestUnknownExperimentRejected pins that a mistyped -exp fails loudly,
// names the valid experiments, and creates no output directory.
func TestUnknownExperimentRejected(t *testing.T) {
	outdir := filepath.Join(t.TempDir(), "results")
	err := run([]string{"-exp", "fig7", "-outdir", outdir})
	if err == nil {
		t.Fatal("-exp fig7 accepted")
	}
	for _, e := range suite {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not list %s", err, e.name)
		}
	}
	if _, statErr := os.Stat(outdir); !os.IsNotExist(statErr) {
		t.Errorf("-outdir created for a rejected -exp (stat: %v)", statErr)
	}
}

// TestNonPositiveScaleRejected pins that a -scale NewSetup would read as
// the paper's full 500k-event trace fails before -outdir is created.
func TestNonPositiveScaleRejected(t *testing.T) {
	for _, scale := range []string{"0", "-1", "NaN", "+Inf"} {
		outdir := filepath.Join(t.TempDir(), "results")
		if err := run([]string{"-exp", "fig7a", "-scale", scale, "-outdir", outdir}); err == nil {
			t.Errorf("-scale %s accepted", scale)
		}
		if _, statErr := os.Stat(outdir); !os.IsNotExist(statErr) {
			t.Errorf("-outdir created for -scale %s (stat: %v)", scale, statErr)
		}
	}
}

func TestEveryExperimentNameAccepted(t *testing.T) {
	for _, e := range suite {
		got, err := selectExperiments(e.name)
		if err != nil || len(got) != 1 || got[0].name != e.name {
			t.Errorf("selectExperiments(%q) = %v, %v", e.name, got, err)
		}
	}
	if got, err := selectExperiments("all"); err != nil || len(got) != len(suite) {
		t.Errorf(`selectExperiments("all") = %d experiments, %v; want %d`, len(got), err, len(suite))
	}
}

// runExp runs one experiment at scale into a fresh directory and
// returns the directory.
func runExp(t *testing.T, exp, scale string) string {
	t.Helper()
	dir := t.TempDir()
	if err := run([]string{"-exp", exp, "-scale", scale, "-outdir", dir}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// readCSV returns a CSV's header and its data rows.
func readCSV(t *testing.T, dir, name string) (header []string, rows [][]string) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatalf("%s is empty", name)
	}
	return records[0], records[1:]
}

// num parses one CSV cell.
func num(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// column returns the index of name in header.
func column(t *testing.T, header []string, name string) int {
	t.Helper()
	i := slices.Index(header, name)
	if i < 0 {
		t.Fatalf("no column %s in %v", name, header)
	}
	return i
}

// TestFig7bSeriesShape: every policy's cumulative traffic never
// decreases along the event sequence.
func TestFig7bSeriesShape(t *testing.T) {
	header, rows := readCSV(t, runExp(t, "fig7b", "0.01"), "fig7b_cumulative.csv")
	if want := append([]string{"event"}, experiments.PolicyNames...); !slices.Equal(header, want) {
		t.Fatalf("header = %v, want %v", header, want)
	}
	if len(rows) < 50 {
		t.Fatalf("too few samples: %d", len(rows))
	}
	for _, name := range experiments.PolicyNames {
		col := column(t, header, name)
		prev := -1.0
		for _, row := range rows {
			v := num(t, row[col])
			if v < prev {
				t.Errorf("%s series decreases", name)
				break
			}
			prev = v
		}
	}
}

// TestFig8aReplicaScalesWithUpdates: across update counts (2000 to 6000
// at this scale) NoCache stays flat, since the queries are the same,
// and Replica grows roughly in proportion.
func TestFig8aReplicaScalesWithUpdates(t *testing.T) {
	header, rows := readCSV(t, runExp(t, "fig8a", "0.016"), "fig8a_updates.csv")
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if first[0] != "2000" || last[0] != "6000" {
		t.Fatalf("update counts run %s to %s, want 2000 to 6000", first[0], last[0])
	}
	noCache, replica := column(t, header, "NoCache"), column(t, header, "Replica")
	if first[noCache] != last[noCache] {
		t.Errorf("NoCache must be independent of update count: %s vs %s GB", first[noCache], last[noCache])
	}
	lo, hi := num(t, first[replica]), num(t, last[replica])
	if hi <= lo {
		t.Errorf("Replica must grow with updates: %v vs %v GB", lo, hi)
	}
	// 3x the updates should cost roughly 3x, within a factor.
	if ratio := hi / lo; ratio < 1.8 || ratio > 4.5 {
		t.Errorf("Replica growth ratio %v, want near 3", ratio)
	}
}

// TestFig8bRuns: every granularity has a positive final total and a
// non-empty cumulative series.
func TestFig8bRuns(t *testing.T) {
	dir := runExp(t, "fig8b", "0.008")
	_, finals := readCSV(t, dir, "fig8b_granularity.csv")
	_, series := readCSV(t, dir, "fig8b_series.csv")
	if len(finals) != 7 {
		t.Fatalf("granularities = %d, want 7", len(finals))
	}
	for _, row := range finals {
		if num(t, row[1]) <= 0 {
			t.Errorf("granularity %s: zero cost", row[0])
		}
		if !slices.ContainsFunc(series, func(pt []string) bool { return pt[0] == row[0] }) {
			t.Errorf("granularity %s: no series", row[0])
		}
	}
}

// TestCacheSizeSweep checks the sweep's shape, not an ordering of the
// online policies: VCover's traffic need not fall as the cache grows.
// NoCache holds nothing and Replica holds everything regardless of
// capacity, so their totals must not move with the fraction.
func TestCacheSizeSweep(t *testing.T) {
	header, rows := readCSV(t, runExp(t, "cachesize", "0.008"), "cachesize.csv")
	fracs := []string{"0.10", "0.20", "0.30", "0.50", "1.00"}
	if len(rows) != len(fracs) {
		t.Fatalf("rows = %d, want %d", len(rows), len(fracs))
	}
	for i, row := range rows {
		if row[0] != fracs[i] {
			t.Errorf("row %d: fraction %s, want %s", i, row[0], fracs[i])
		}
		for _, name := range experiments.PolicyNames {
			if v := num(t, row[column(t, header, name)]); v <= 0 {
				t.Errorf("fraction %s: %s total %v GB, want > 0", row[0], name, v)
			}
		}
		for _, name := range []string{"NoCache", "Replica"} {
			col := column(t, header, name)
			if row[col] != rows[0][col] {
				t.Errorf("%s at fraction %s = %s GB, at %s = %s GB; must not depend on the cache size",
					name, row[0], row[col], rows[0][0], rows[0][col])
			}
		}
	}
}

func TestBenefitWindowSweepRuns(t *testing.T) {
	_, rows := readCSV(t, runExp(t, "window", "0.008"), "benefit_window.csv")
	if len(rows) != 5 {
		t.Fatalf("rows = %v, want 5", rows)
	}
	for _, row := range rows {
		if num(t, row[1]) <= 0 {
			t.Errorf("window %s: total %s GB, want > 0", row[0], row[1])
		}
	}
}

func TestWarmupRuns(t *testing.T) {
	_, rows := readCSV(t, runExp(t, "warmup", "0.008"), "warmup.csv")
	if len(rows) != 5 {
		t.Fatalf("rows = %v, want one per seed", rows)
	}
}
