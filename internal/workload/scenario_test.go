package workload

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/sim"
)

func TestScenarioRegistry(t *testing.T) {
	list := Scenarios()
	if len(list) != 5 {
		t.Fatalf("got %d scenarios, want 5", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Name() >= list[i].Name() {
			t.Errorf("registry not sorted: %q before %q", list[i-1].Name(), list[i].Name())
		}
	}
	for _, s := range list {
		if s.Description() == "" {
			t.Errorf("scenario %q lacks a description", s.Name())
		}
		got, err := Lookup(s.Name())
		if err != nil {
			t.Errorf("Lookup(%q): %v", s.Name(), err)
		} else if got.Name() != s.Name() {
			t.Errorf("Lookup(%q) returned %q", s.Name(), got.Name())
		}
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("unknown scenario should fail lookup")
	}
}

// TestScenarioEventContract checks every scenario against the event
// stream contract the replayers rely on: valid events, dense ascending
// sequence numbers, strictly increasing times, exact query/update
// conservation.
func TestScenarioEventContract(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name(), func(t *testing.T) {
			survey := testSurvey(t)
			base := survey.NumObjects()
			opts := Options{Seed: 3, Queries: 600, Updates: 300}
			events, err := sc.Events(survey, opts)
			if err != nil {
				t.Fatal(err)
			}
			var q, u, b int
			lastTime := time.Duration(-1)
			for i := range events {
				e := &events[i]
				if err := e.Validate(); err != nil {
					t.Fatalf("event %d invalid: %v", i, err)
				}
				if e.Seq != int64(i) {
					t.Fatalf("event %d has seq %d", i, e.Seq)
				}
				if e.Time() <= lastTime {
					t.Fatalf("event %d time %v not after %v", i, e.Time(), lastTime)
				}
				lastTime = e.Time()
				switch e.Kind {
				case model.EventQuery:
					q++
					for _, id := range e.Query.Objects {
						if id < 1 || int(id) > survey.NumObjects() {
							t.Fatalf("query %d touches unknown object %d", e.Query.ID, id)
						}
					}
				case model.EventUpdate:
					u++
				case model.EventBirth:
					b++
				}
			}
			if q != opts.Queries || u != opts.Updates {
				t.Errorf("conservation broken: %d/%d queries, %d/%d updates",
					q, opts.Queries, u, opts.Updates)
			}
			if survey.NumObjects() != base+b {
				t.Errorf("survey grew %d but trace carries %d births",
					survey.NumObjects()-base, b)
			}
		})
	}
}

// TestScenarioValidation drives every invalid scenario option through
// its error path.
func TestScenarioValidation(t *testing.T) {
	survey := testSurvey(t)
	cases := []struct {
		name     string
		scenario string
		opts     Options
	}{
		{"options negative queries", "zipf-drift", Options{Queries: -1, Updates: 10}},
		{"options negative updates", "zipf-drift", Options{Queries: 10, Updates: -1}},
		// 120 births in 4 storms of 30 need storm starts more than 30
		// slots apart; 140 slots space them 28 apart.
		{"growth births overflow trace", "growth-spurt", Options{Queries: 10, Updates: 10}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := mustLookup(t, tt.scenario).Events(survey, tt.opts); err == nil {
				t.Errorf("expected error for %s", tt.name)
			}
		})
	}
	for _, sc := range Scenarios() {
		if _, err := sc.Events(nil, Options{}); err == nil {
			t.Errorf("%s: nil survey should fail", sc.Name())
		}
	}
}

// TestConfigValidationTable covers every invalid setting of the base
// generator Config.
func TestConfigValidationTable(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no events", func(c *Config) { c.NumQueries, c.NumUpdates = 0, 0 }},
		{"negative queries", func(c *Config) { c.NumQueries = -1 }},
		{"negative updates", func(c *Config) { c.NumUpdates = -1 }},
		{"background frac negative", func(c *Config) { c.BackgroundQueryFrac = -0.1 }},
		{"negative growth", func(c *Config) { c.GrowthObjects = -1 }},
		{"birth bias above 1", func(c *Config) { c.BirthBias = 2 }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("expected error for %s", tt.name)
			}
		})
	}
	okCases := []struct {
		name string
		mut  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"queries only", func(c *Config) { c.NumUpdates = 0 }},
	}
	for _, tt := range okCases {
		t.Run("ok/"+tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mut(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		})
	}
}

// TestScenarioConservationProperty is the testing/quick half of the
// conservation contract: random small event mixes always conserve
// counts, for every scenario.
func TestScenarioConservationProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	// The smallest random trace, 100 queries + 50 updates + growth-spurt's
	// 120 births, spaces its 4 storms 54 slots apart: above the 30
	// births in each.
	for _, sc := range Scenarios() {
		prop := func(seed uint16, dq, du uint8) bool {
			survey := quickSurvey()
			opts := Options{
				Seed:    int64(seed) + 1,
				Queries: 100 + int(dq),
				Updates: 50 + int(du),
			}
			events, err := sc.Events(survey, opts)
			if err != nil {
				t.Logf("%s: %v", sc.Name(), err)
				return false
			}
			var q, u int
			for i := range events {
				switch events[i].Kind {
				case model.EventQuery:
					q++
				case model.EventUpdate:
					u++
				}
			}
			return q == opts.Queries && u == opts.Updates
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
			t.Errorf("%s: %v", sc.Name(), err)
		}
	}
}

// TestZeroGrowthScenariosByteIdentical: scenarios that do not grow the
// universe must produce byte-identical traces on repeated generation
// against identical surveys.
func TestZeroGrowthScenariosByteIdentical(t *testing.T) {
	for _, sc := range Scenarios() {
		if sc.Name() == "growth-spurt" {
			continue
		}
		t.Run(sc.Name(), func(t *testing.T) {
			opts := Options{Seed: 11, Queries: 500, Updates: 250}
			a, err := sc.Events(testSurvey(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sc.Events(testSurvey(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			var bufA, bufB bytes.Buffer
			serializeEvents(&bufA, a)
			serializeEvents(&bufB, b)
			if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
				t.Error("repeated generation not byte-identical")
			}
			if !reflect.DeepEqual(a, b) {
				t.Error("repeated generation not deeply equal")
			}
		})
	}
}

// TestGrowthSpurtDeterministic: the growing scenario is deterministic
// too, and concentrates births into storm runs.
func TestGrowthSpurtDeterministic(t *testing.T) {
	sc := mustLookup(t, "growth-spurt")
	opts := Options{Seed: 5, Queries: 800, Updates: 400}
	a, err := sc.Events(testSurvey(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Events(testSurvey(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("growth-spurt not deterministic")
	}
	// Births arrive in exactly growthStorms consecutive runs.
	runs, births := 0, 0
	prevBirth := false
	for i := range a {
		isBirth := a[i].Kind == model.EventBirth
		if isBirth {
			births++
			if !prevBirth {
				runs++
			}
		}
		prevBirth = isBirth
	}
	if births != growthBirths {
		t.Errorf("got %d births, want %d", births, growthBirths)
	}
	if runs != growthStorms {
		t.Errorf("births split into %d runs, want %d storms", runs, growthStorms)
	}
}

// TestZipfRankFrequency checks the measured anchor popularity against
// the skew within the first drift phase, where rank k maps to anchor k:
// anchor k must be hit approximately N·(k+1)^−s/H times by that phase's
// N queries. The survey is a fine uniform partition so distinct anchors
// resolve to distinct object sets; anchors whose covers still overlap
// (two ranks on the same sky) are grouped and checked against their
// summed expectation.
func TestZipfRankFrequency(t *testing.T) {
	scfg := catalog.Config{
		Seed:          1,
		NumObjects:    8192,
		TotalSize:     8 * cost.GB,
		MinObjectSize: 64 * cost.KB,
		MaxObjectSize: 16 * cost.MB,
		Blobs:         10,
		Uniform:       true,
	}
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 9, Queries: 12000 * zipfPhases, Updates: 1}
	events, err := mustLookup(t, "zipf-drift").Events(survey, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Recreate the anchor plan: Events draws it from a fresh planRng
	// before touching any other stream.
	planRng := rand.New(rand.NewSource(opts.Seed))
	anchors, err := queryAnchors(planRng, survey, zipfAnchors)
	if err != nil {
		t.Fatal(err)
	}
	// The cone centers wobble only 0.05° around their anchor, so a
	// query attributes to the anchor whose own cover its object set
	// overlaps most.
	anchorCover := make([][]model.ObjectID, len(anchors))
	for a := range anchors {
		anchorCover[a] = survey.CoverCap(geom.NewCap(anchors[a], zipfRadiusDeg))
	}
	// Group anchors with overlapping covers: their queries are mutually
	// unattributable, so they are validated against a pooled
	// expectation.
	group := make([]int, len(anchors))
	for a := range group {
		group[a] = a
	}
	find := func(a int) int {
		for group[a] != a {
			a = group[a]
		}
		return a
	}
	for a := 0; a < len(anchors); a++ {
		for b := a + 1; b < len(anchors); b++ {
			if overlapCount(anchorCover[a], anchorCover[b]) > 0 {
				group[find(b)] = find(a)
			}
		}
	}
	counts := make(map[int]float64)
	phaseQueries := 0
	for i := range events {
		if events[i].Kind != model.EventQuery ||
			int(events[i].Query.ID-1)*zipfPhases/opts.Queries != 0 {
			continue
		}
		phaseQueries++
		best, bestOverlap := 0, -1
		for a := range anchors {
			if overlap := overlapCount(events[i].Query.Objects, anchorCover[a]); overlap > bestOverlap {
				best, bestOverlap = a, overlap
			}
		}
		counts[find(best)]++
	}
	var h float64
	for k := 0; k < zipfAnchors; k++ {
		h += math.Pow(float64(k+1), -zipfSkew)
	}
	expected := make(map[int]float64)
	for k := 0; k < zipfAnchors; k++ {
		expected[find(k)] += float64(phaseQueries) * math.Pow(float64(k+1), -zipfSkew) / h
	}
	checked := 0
	for g, exp := range expected {
		if exp < 100 {
			continue // too few samples for a tight relative bound
		}
		checked++
		if got := counts[g]; math.Abs(got-exp) > 0.25*exp+30 {
			t.Errorf("anchor group %d: %v queries, want ~%.0f (skew %v)", g, got, exp, zipfSkew)
		}
	}
	if checked < 3 {
		t.Fatalf("only %d measurable anchor groups; test has no power", checked)
	}
}

// TestScenarioReplaysThroughSimulator: the whole point of the common
// event-stream contract — a scenario trace drives the simulator with
// zero violations, births included.
func TestScenarioReplaysThroughSimulator(t *testing.T) {
	for _, name := range []string{"flash-crowd", "growth-spurt"} {
		t.Run(name, func(t *testing.T) {
			sc := mustLookup(t, name)
			survey := testSurvey(t)
			objects := survey.Objects()
			events, err := sc.Events(survey, Options{Seed: 2, Queries: 1500, Updates: 600})
			if err != nil {
				t.Fatal(err)
			}
			capacity := cost.Bytes(float64(survey.TotalSize()) * 0.3)
			res, err := sim.Run(core.NewVCover(core.DefaultVCoverConfig()), objects, events,
				sim.Config{CacheCapacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Errorf("violations: %v", res.Violations[:min(3, len(res.Violations))])
			}
		})
	}
}

// serializeEvents writes a canonical byte form of an event stream; the
// golden-trace hashes are computed over exactly this encoding.
func serializeEvents(w io.Writer, events []model.Event) {
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case model.EventQuery:
			fmt.Fprintf(w, "q %d %d %d %d %d", e.Seq, e.Query.ID, e.Query.Cost, e.Query.Tolerance, e.Query.Time)
			for _, id := range e.Query.Objects {
				fmt.Fprintf(w, " %d", id)
			}
			fmt.Fprint(w, "\n")
		case model.EventUpdate:
			fmt.Fprintf(w, "u %d %d %d %d %d\n", e.Seq, e.Update.ID, e.Update.Object, e.Update.Cost, e.Update.Time)
		case model.EventBirth:
			fmt.Fprintf(w, "b %d %d %d %d %.17g %.17g %d\n", e.Seq,
				e.Birth.Object.ID, e.Birth.Object.Size, e.Birth.Object.Trixel, e.Birth.RA, e.Birth.Dec, e.Birth.Time)
		}
	}
}

func overlapCount(a, b []model.ObjectID) int {
	seen := make(map[model.ObjectID]struct{}, len(a))
	for _, id := range a {
		seen[id] = struct{}{}
	}
	n := 0
	for _, id := range b {
		if _, ok := seen[id]; ok {
			n++
		}
	}
	return n
}

func mustLookup(t *testing.T, name string) Scenario {
	t.Helper()
	sc, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// quickSurvey builds a small survey without a testing.T (for
// testing/quick properties).
func quickSurvey() *catalog.Survey {
	s, err := catalog.NewSurvey(catalog.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return s
}
