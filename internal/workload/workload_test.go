package workload

import (
	"math"
	"sort"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// smallConfig returns a fast config for tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumQueries = 4000
	cfg.NumUpdates = 4000
	return cfg
}

func testSurvey(t *testing.T) *catalog.Survey {
	t.Helper()
	s, err := catalog.NewSurvey(catalog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func genSmall(t *testing.T) []model.Event {
	t.Helper()
	g, err := NewGenerator(testSurvey(t), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	events, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestGeneratorValidation(t *testing.T) {
	s := testSurvey(t)
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"no events", func(c *Config) { c.NumQueries, c.NumUpdates = 0, 0 }},
		{"negative queries", func(c *Config) { c.NumQueries = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mut(&cfg)
			if _, err := NewGenerator(s, cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
	if _, err := NewGenerator(nil, smallConfig()); err == nil {
		t.Error("nil survey should fail")
	}
}

func TestGenerateCountsAndOrder(t *testing.T) {
	events := genSmall(t)
	if len(events) != 8000 {
		t.Fatalf("got %d events, want 8000", len(events))
	}
	var q, u int
	var lastTime time.Duration = -1
	for i := range events {
		e := &events[i]
		if err := e.Validate(); err != nil {
			t.Fatalf("event %d invalid: %v", i, err)
		}
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Time() <= lastTime {
			t.Fatalf("event %d time not increasing", i)
		}
		lastTime = e.Time()
		if e.Kind == model.EventQuery {
			q++
		} else {
			u++
		}
	}
	if q != 4000 || u != 4000 {
		t.Errorf("got %d queries, %d updates; want 4000 each", q, u)
	}
}

func TestGenerateInterleavesEvenly(t *testing.T) {
	events := genSmall(t)
	// In any window of 100 events, both kinds should appear.
	for start := 0; start+100 <= len(events); start += 100 {
		var q int
		for i := start; i < start+100; i++ {
			if events[i].Kind == model.EventQuery {
				q++
			}
		}
		if q < 20 || q > 80 {
			t.Fatalf("window at %d badly interleaved: %d queries of 100", start, q)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t)
	b := genSmall(t)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Kind != b[i].Kind {
			t.Fatalf("event %d kind differs", i)
		}
		if a[i].Kind == model.EventQuery {
			if a[i].Query.Cost != b[i].Query.Cost || len(a[i].Query.Objects) != len(b[i].Query.Objects) {
				t.Fatalf("event %d query differs", i)
			}
		} else if *a[i].Update != *b[i].Update {
			t.Fatalf("event %d update differs", i)
		}
	}
}

func TestQueryObjectsValid(t *testing.T) {
	s := testSurvey(t)
	g, err := NewGenerator(s, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	events, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if events[i].Kind != model.EventQuery {
			continue
		}
		for _, o := range events[i].Query.Objects {
			if o < 1 || int(o) > s.NumObjects() {
				t.Fatalf("query %d references invalid object %d", events[i].Query.ID, o)
			}
		}
	}
}

func TestMultiObjectQueriesExist(t *testing.T) {
	events := genSmall(t)
	multi := 0
	for i := range events {
		if events[i].Kind == model.EventQuery && len(events[i].Query.Objects) > 1 {
			multi++
		}
	}
	// The general decoupling problem needs queries spanning objects.
	if multi < 100 {
		t.Errorf("only %d multi-object queries; decoupling would be trivial", multi)
	}
}

func TestToleranceMix(t *testing.T) {
	events := genSmall(t)
	var zero, any, finite int
	for i := range events {
		if events[i].Kind != model.EventQuery {
			continue
		}
		switch tol := events[i].Query.Tolerance; {
		case tol == model.NoTolerance:
			zero++
		case tol == model.AnyStaleness:
			any++
		default:
			finite++
		}
	}
	if zero == 0 || any == 0 || finite == 0 {
		t.Errorf("tolerance mix degenerate: zero=%d any=%d finite=%d", zero, any, finite)
	}
	// Roughly half the queries demand the latest data (cfg default 0.5).
	total := zero + any + finite
	if frac := float64(zero) / float64(total); math.Abs(frac-0.5) > 0.1 {
		t.Errorf("zero-tolerance fraction %v, want ~0.5", frac)
	}
}

func TestWarmupRamp(t *testing.T) {
	events := genSmall(t)
	var earlySum, lateSum cost.Bytes
	var earlyN, lateN int
	for i := range events {
		if events[i].Kind != model.EventQuery {
			continue
		}
		if i < len(events)/4 {
			earlySum += events[i].Query.Cost
			earlyN++
		} else if i > 3*len(events)/4 {
			lateSum += events[i].Query.Cost
			lateN++
		}
	}
	earlyMean := float64(earlySum) / float64(earlyN)
	lateMean := float64(lateSum) / float64(lateN)
	if earlyMean >= lateMean {
		t.Errorf("no warm-up ramp: early mean %v >= late mean %v", earlyMean, lateMean)
	}
}

func TestHotspotDecoupling(t *testing.T) {
	// Query hotspots and update hotspots must be largely disjoint —
	// this is the workload property Delta exploits (Fig 7a).
	events := genSmall(t)
	queryBytes := make(map[model.ObjectID]cost.Bytes)
	updateBytes := make(map[model.ObjectID]cost.Bytes)
	for i := range events {
		switch e := &events[i]; e.Kind {
		case model.EventQuery:
			// A query's bytes split evenly over its objects.
			share := e.Query.Cost / cost.Bytes(len(e.Query.Objects))
			for _, o := range e.Query.Objects {
				queryBytes[o] += share
			}
		case model.EventUpdate:
			updateBytes[e.Update.Object] += e.Update.Cost
		}
	}
	topU := make(map[model.ObjectID]bool)
	for _, o := range topByBytes(updateBytes, 8) {
		topU[o] = true
	}
	overlap := 0
	for _, o := range topByBytes(queryBytes, 8) {
		if topU[o] {
			overlap++
		}
	}
	if overlap > 3 {
		t.Errorf("query/update hotspots overlap too much: %d of 8", overlap)
	}
}

// topByBytes returns the n objects with the most bytes, ties broken by
// object ID.
func topByBytes(bytes map[model.ObjectID]cost.Bytes, n int) []model.ObjectID {
	ids := make([]model.ObjectID, 0, len(bytes))
	for id := range bytes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if bytes[ids[i]] != bytes[ids[j]] {
			return bytes[ids[i]] > bytes[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids[:min(n, len(ids))]
}

func TestCampaignEvolution(t *testing.T) {
	// The dominant queried object must change across trace thirds
	// (evolving workload, design choice B).
	events := genSmall(t)
	third := len(events) / 3
	top := func(lo, hi int) model.ObjectID {
		counts := make(map[model.ObjectID]int)
		for i := lo; i < hi; i++ {
			if events[i].Kind != model.EventQuery {
				continue
			}
			for _, o := range events[i].Query.Objects {
				counts[o]++
			}
		}
		var best model.ObjectID
		bestN := -1
		for o, n := range counts {
			if n > bestN {
				best, bestN = o, n
			}
		}
		return best
	}
	t1 := top(0, third)
	t2 := top(third, 2*third)
	t3 := top(2*third, len(events))
	if t1 == t2 && t2 == t3 {
		t.Errorf("dominant object never changes (%d); workload does not evolve", t1)
	}
}

func TestUpdateSizesTrackDensity(t *testing.T) {
	// Updates on bigger (denser) objects must be bigger on average.
	s := testSurvey(t)
	g, err := NewGenerator(s, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	events, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	bytesPer := make(map[model.ObjectID]cost.Bytes)
	countPer := make(map[model.ObjectID]int)
	for i := range events {
		if events[i].Kind != model.EventUpdate {
			continue
		}
		u := events[i].Update
		bytesPer[u.Object] += u.Cost
		countPer[u.Object]++
	}
	// Compare mean update size on the largest vs smallest objects hit.
	objs := s.Objects()
	var bigMean, smallMean float64
	var bigN, smallN int
	for id, n := range countPer {
		if n < 10 {
			continue
		}
		mean := float64(bytesPer[id]) / float64(n)
		size := objs[id-1].Size
		if size > 10*cost.GB {
			bigMean += mean
			bigN++
		} else if size < cost.GB {
			smallMean += mean
			smallN++
		}
	}
	if bigN == 0 || smallN == 0 {
		t.Skip("no contrast classes in this sample")
	}
	if bigMean/float64(bigN) <= smallMean/float64(smallN) {
		t.Errorf("update sizes do not track object density: big %v <= small %v",
			bigMean/float64(bigN), smallMean/float64(smallN))
	}
}

func TestQueriesOnlyTrace(t *testing.T) {
	cfg := smallConfig()
	cfg.NumUpdates = 0
	g, err := NewGenerator(testSurvey(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != cfg.NumQueries {
		t.Fatalf("got %d events", len(events))
	}
	for i := range events {
		if events[i].Kind != model.EventQuery {
			t.Fatal("unexpected update event")
		}
	}
}

func TestUpdatesOnlyTrace(t *testing.T) {
	cfg := smallConfig()
	cfg.NumQueries = 0
	g, err := NewGenerator(testSurvey(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != cfg.NumUpdates {
		t.Fatalf("got %d events", len(events))
	}
	for i := range events {
		if events[i].Kind != model.EventUpdate {
			t.Fatal("unexpected query event")
		}
	}
}

func TestGrowthEventsInterleaved(t *testing.T) {
	cfg := smallConfig()
	cfg.GrowthObjects = 40
	cfg.BirthBias = 0.3
	survey := testSurvey(t)
	base := survey.NumObjects()
	g, err := NewGenerator(survey, cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.NumQueries + cfg.NumUpdates + cfg.GrowthObjects; len(events) != want {
		t.Fatalf("generated %d events, want %d", len(events), want)
	}
	var births, queries, updates int
	var firstBirth, lastBirth int64 = -1, -1
	bornTouched := make(map[model.ObjectID]bool)
	bornSeen := make(map[model.ObjectID]bool)
	for i := range events {
		e := &events[i]
		if err := e.Validate(); err != nil {
			t.Fatal(err)
		}
		switch e.Kind {
		case model.EventBirth:
			births++
			if firstBirth < 0 {
				firstBirth = e.Seq
			}
			lastBirth = e.Seq
			if int(e.Birth.Object.ID) <= base {
				t.Fatalf("birth reuses base ID %d", e.Birth.Object.ID)
			}
			bornSeen[e.Birth.Object.ID] = true
		case model.EventQuery:
			queries++
			for _, id := range e.Query.Objects {
				if int(id) > base {
					if !bornSeen[id] {
						t.Fatalf("query %d touches object %d before its birth", e.Query.ID, id)
					}
					bornTouched[id] = true
				}
			}
		case model.EventUpdate:
			updates++
		}
	}
	if births != cfg.GrowthObjects || queries != cfg.NumQueries || updates != cfg.NumUpdates {
		t.Fatalf("event mix: %d births %d queries %d updates", births, queries, updates)
	}
	if survey.NumObjects() != base+cfg.GrowthObjects {
		t.Errorf("survey grew to %d, want %d", survey.NumObjects(), base+cfg.GrowthObjects)
	}
	// Births spread through the trace, not clumped at either end.
	total := int64(len(events))
	if firstBirth > total/2 || lastBirth < total/2 {
		t.Errorf("births clumped: first at %d, last at %d of %d", firstBirth, lastBirth, total)
	}
	// The access-concentration bias makes born objects actually queried.
	if len(bornTouched) < cfg.GrowthObjects/4 {
		t.Errorf("only %d of %d born objects ever queried", len(bornTouched), cfg.GrowthObjects)
	}
}

func TestGrowthDeterministicAndOffByDefault(t *testing.T) {
	gen := func(growth int) []model.Event {
		cfg := smallConfig()
		cfg.NumQueries, cfg.NumUpdates = 800, 800
		cfg.GrowthObjects = growth
		cfg.BirthBias = 0.25
		g, err := NewGenerator(testSurvey(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		events, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	a, b := gen(10), gen(10)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind {
			t.Fatalf("event %d kind diverged", i)
		}
		if a[i].Kind == model.EventBirth && *a[i].Birth != *b[i].Birth {
			t.Fatalf("birth %d diverged: %+v vs %+v", i, a[i].Birth, b[i].Birth)
		}
	}
	// Growth off reproduces the pre-growth trace exactly.
	plain, regen := gen(0), gen(0)
	for i := range plain {
		if plain[i].Kind != regen[i].Kind {
			t.Fatalf("zero-growth trace not deterministic at %d", i)
		}
		if plain[i].Kind == model.EventQuery && plain[i].Query.Cost != regen[i].Query.Cost {
			t.Fatalf("zero-growth query %d diverged", i)
		}
	}
}
