package main

import (
	"crypto/sha256"
	"encoding/csv"
	"fmt"
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

// TestSeedsShape: one row per cache fraction, trace seed and policy,
// and one win count per fraction and comparison, none above the seeds.
func TestSeedsShape(t *testing.T) {
	dir := runExp(t, "seeds", "0.008")
	_, runs := readCSV(t, dir, "seeds.csv")
	if want := 2 * 10 * len(experiments.PolicyNames); len(runs) != want {
		t.Errorf("seeds.csv has %d rows, want %d", len(runs), want)
	}
	_, wins := readCSV(t, dir, "seeds_wins.csv")
	if want := 2 * (len(experiments.Fig7bChecks) + 1); len(wins) != want {
		t.Errorf("seeds_wins.csv has %d rows, want %d", len(wins), want)
	}
	for _, row := range wins {
		if num(t, row[2]) > num(t, row[3]) {
			t.Errorf("%s at %s holds on %s of %s seeds", row[1], row[0], row[2], row[3])
		}
	}
}

// TestPaperFiguresGolden pins every CSV of -exp all at scale 0.01 to its
// checked-in sha256: a refactor of the simulator, the policies, the
// trace generators or the figure drivers must leave the paper's figures
// byte-identical, and one that means to move them updates these hashes.
func TestPaperFiguresGolden(t *testing.T) {
	dir := runExp(t, "all", "0.01")
	golden := map[string]string{
		"benefit_window.csv":    "ac7f582f1b4eaff373aaa565d60e94fd393644186a8ac291cfd4c06200909021",
		"cachesize.csv":         "4e5cb55b1e71c6649223f95742e68023f2795c8f714c516f5cff6f916d1c0b8d",
		"fig7a_scatter.csv":     "9501f6643fd8d6e856fd5f9fa2320736f0b7e1aea0f54d9663d0fb519457a53c",
		"fig7b_cumulative.csv":  "2c16ca79c7683268dd6b25a0d9648b4e3beb7cc825c3c04a9574a517b09d2b65",
		"fig8a_updates.csv":     "15b604dfddb49f1f127429d38bbacc39381b0176b0f484bf03552a6d8aadc05b",
		"fig8b_granularity.csv": "ab339289c23b572fed7f02e60bf90a8ff636a14ec5a0ae54e06f1c80d56a4762",
		"fig8b_series.csv":      "f76083a33ca61885b0b64af5f62073474a7ac88d6ff4ac25fd5cdbd1d3bd72e0",
		"seeds.csv":             "e860b9479d58a916082417985a624101ac6f398892bf72128981fd4912755915",
		"seeds_wins.csv":        "bee10d5690884e0572dc53cabb1ab549746c6ef4a0c9097d3a8b57529ceb7f36",
		"warmup.csv":            "452b14b1849a8a7f7ba159f41893de4a99322e5c33982087851b4316bbd1b497",
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(golden) {
		t.Errorf("-exp all wrote %d files, want %d", len(entries), len(golden))
	}
	for name, want := range golden {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
}
