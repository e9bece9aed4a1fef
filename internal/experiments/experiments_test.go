package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// testSetup builds a reduced but statistically meaningful trace (100k
// events — enough for the paper's post-warmup shape to be stable).
func testSetup(t *testing.T) *Setup {
	t.Helper()
	s, err := NewSetup(Options{Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNewSetupGolden pins the reference trace (seed 2) that the
// benchmark's paper-trace workload replays, at a small scale: every
// query's object set is a cone cover over the 68-object leveled mesh,
// so a cover that drifts by one boundary trixel changes the hash.
// Regenerate an intentional change with
//
//	go test ./internal/experiments -run TestNewSetupGolden -v
func TestNewSetupGolden(t *testing.T) {
	const want = "d0131a11ae94edf14bd8d8fab4886d526a36a8bc244918ab1b8dd1ba8ac3cc1c"
	s, err := NewSetup(Options{Scale: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One JSON object per event, newline-terminated.
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range s.Events {
		if err := enc.Encode(&s.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("reference trace hash changed:\n got  %s\n want %s", got, want)
	}
}

func TestNewSetupDefaults(t *testing.T) {
	s := testSetup(t)
	if s.Survey.NumObjects() != 68 {
		t.Errorf("objects = %d, want 68", s.Survey.NumObjects())
	}
	if len(s.Events) != 100000 {
		t.Errorf("events = %d, want 100000", len(s.Events))
	}
	if s.Capacity() <= 0 || s.Capacity() >= s.Survey.TotalSize() {
		t.Errorf("capacity = %v out of range", s.Capacity())
	}
}

// TestPaperOrdering is the headline reproduction check at reduced scale:
// post-warmup (the paper's Figure 7b excludes warm-up-period costs), the
// five policies must land in the paper's order —
// SOptimal <= VCover < Replica, Benefit, NoCache — with no violations.
func TestPaperOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("ordering test needs the full small trace")
	}
	s := testSetup(t)
	results, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	totals := PostWarmup(results, 0.5)
	get := func(name string) cost.Bytes {
		v, ok := totals[name]
		if !ok {
			t.Fatalf("missing result for %s", name)
		}
		return v
	}
	noCache, replica := get("NoCache"), get("Replica")
	benefit, vcover, soptimal := get("Benefit"), get("VCover"), get("SOptimal")
	t.Logf("post-warmup: NoCache=%v Replica=%v Benefit=%v VCover=%v SOptimal=%v",
		noCache, replica, benefit, vcover, soptimal)
	t.Logf("full trace:  NoCache=%v Replica=%v Benefit=%v VCover=%v SOptimal=%v",
		results["NoCache"].Total(), results["Replica"].Total(),
		results["Benefit"].Total(), results["VCover"].Total(), results["SOptimal"].Total())

	if vcover >= noCache {
		t.Errorf("VCover (%v) must beat NoCache (%v)", vcover, noCache)
	}
	if vcover >= benefit {
		t.Errorf("VCover (%v) must beat Benefit (%v)", vcover, benefit)
	}
	if vcover >= replica {
		t.Errorf("VCover (%v) must beat Replica (%v)", vcover, replica)
	}
	if soptimal > vcover {
		t.Errorf("SOptimal (%v) must not exceed VCover (%v)", soptimal, vcover)
	}
}

// TestPaperClaimsAcrossSeeds scores Figure 7(b)'s ordering over trace
// seeds 1–10 at scale 0.1, where TestPaperOrdering checks one trace, at
// the paper's 30% cache and at 5% and 2%, where capacity binds and
// VCover evicts. SOptimal <= VCover has held on every seed, scale and
// cache size measured, so it is asserted on each. The other comparisons
// do not hold on every trace: their win counts are floors, which a
// change to a policy may raise but not lower. delta-bench -exp seeds
// prints the same counts. At 30%, under the paper's randomized load
// attribution (drawn with the trace seed) they were 10, 9, 8 and 7 of
// 10; the per-object credit raised them to 10, 10, 9 and 9.
func TestPaperClaimsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("the claims replay ten traces")
	}
	var seeds []int64
	for seed := int64(1); seed <= 10; seed++ {
		seeds = append(seeds, seed)
	}
	for _, c := range []struct {
		frac   float64
		floors []int // Fig7bChecks in order, then all four
	}{
		{0.3, []int{10, 10, 9, 10, 9}},
		{0.05, []int{10, 9, 7, 10, 7}},
		{0.02, []int{5, 0, 3, 10, 0}},
	} {
		trials, err := AcrossSeeds(Options{Scale: 0.1, CacheFrac: c.frac}, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trials {
			if opt, vc := tr.Post["SOptimal"], tr.Post["VCover"]; opt > vc {
				t.Errorf("cache %.0f%%, seed %d: SOptimal (%v) exceeds VCover (%v) post-warmup", c.frac*100, tr.Seed, opt, vc)
			}
		}
		for i, got := range Wins(trials) {
			name := "all four"
			if i < len(Fig7bChecks) {
				name = Fig7bChecks[i].Name
			}
			t.Logf("cache %.0f%%: %s holds on %d of %d seeds", c.frac*100, name, got, len(trials))
			if got < c.floors[i] {
				t.Errorf("cache %.0f%%: %s holds on %d of %d seeds, below its floor of %d", c.frac*100, name, got, len(trials), c.floors[i])
			}
		}
	}
}

// TestFig7aCSV samples the scatter as Figure 7(a) does, every
// len/4000-th event of the 100k-event trace.
func TestFig7aCSV(t *testing.T) {
	s := testSetup(t)
	var buf bytes.Buffer
	if err := ScatterCSV(&buf, s.Events, len(s.Events)/4000); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 1000 {
		t.Errorf("scatter too sparse: %d lines", len(lines))
	}
	if lines[0] != "event,object,kind" {
		t.Errorf("header = %q", lines[0])
	}
}

func scatterEvents() []model.Event {
	return []model.Event{
		{Seq: 0, Kind: model.EventQuery, Query: &model.Query{
			ID: 1, Objects: []model.ObjectID{1, 2}, Cost: 10 * cost.MB,
			Tolerance: model.NoTolerance, Time: 0,
		}},
		{Seq: 1, Kind: model.EventUpdate, Update: &model.Update{
			ID: 1, Object: 3, Cost: 2 * cost.MB, Time: time.Second,
		}},
		{Seq: 2, Kind: model.EventQuery, Query: &model.Query{
			ID: 2, Objects: []model.ObjectID{2}, Cost: 6 * cost.MB,
			Tolerance: time.Minute, Time: 2 * time.Second,
		}},
		{Seq: 3, Kind: model.EventUpdate, Update: &model.Update{
			ID: 2, Object: 3, Cost: 1 * cost.MB, Time: 3 * time.Second,
		}},
	}
}

func TestScatterCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := ScatterCSV(&buf, scatterEvents(), 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + q1 touches 2 objects + u1 + q2 + u2 = 6 lines.
	if len(lines) != 6 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	if lines[0] != "event,object,kind" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,1,query" || lines[2] != "0,2,query" {
		t.Errorf("query rows wrong: %v", lines[1:3])
	}
}

func TestScatterCSVSampling(t *testing.T) {
	var buf bytes.Buffer
	if err := ScatterCSV(&buf, scatterEvents(), 2); err != nil {
		t.Fatal(err)
	}
	// Only events 0 and 2 are sampled: header + 2 obj rows + 1 = 4.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
}
