package catalog

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
)

func testSurvey(t *testing.T) *Survey {
	t.Helper()
	s, err := NewSurvey(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSurveyDefault(t *testing.T) {
	s := testSurvey(t)
	if s.NumObjects() != 68 {
		t.Errorf("NumObjects = %d, want 68", s.NumObjects())
	}
}

func TestNewSurveyValidation(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"too few objects", func(c *Config) { c.NumObjects = 3 }},
		{"zero total", func(c *Config) { c.TotalSize = 0 }},
		{"min above max", func(c *Config) { c.MinObjectSize = 2 * c.MaxObjectSize }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mut(&cfg)
			if _, err := NewSurvey(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestObjectSizesWithinBounds(t *testing.T) {
	s := testSurvey(t)
	cfg := s.Config()
	for _, o := range s.Objects() {
		if o.Size < cfg.MinObjectSize || o.Size > cfg.MaxObjectSize {
			t.Errorf("object %d size %v outside [%v, %v]",
				o.ID, o.Size, cfg.MinObjectSize, cfg.MaxObjectSize)
		}
	}
}

func TestObjectSizesVary(t *testing.T) {
	// The paper reports sizes from 50 MB to 90 GB; ours must at least
	// span an order of magnitude.
	s := testSurvey(t)
	minS, maxS := s.Objects()[0].Size, s.Objects()[0].Size
	for _, o := range s.Objects() {
		if o.Size < minS {
			minS = o.Size
		}
		if o.Size > maxS {
			maxS = o.Size
		}
	}
	if maxS < 10*minS {
		t.Errorf("object sizes too uniform: min %v max %v", minS, maxS)
	}
}

func TestTotalSizeNearTarget(t *testing.T) {
	s := testSurvey(t)
	got := float64(s.TotalSize())
	want := float64(s.Config().TotalSize)
	if got < 0.5*want || got > 1.5*want {
		t.Errorf("total size %v too far from target %v", s.TotalSize(), s.Config().TotalSize)
	}
}

func TestObjectLookup(t *testing.T) {
	s := testSurvey(t)
	if _, err := s.Object(1); err != nil {
		t.Errorf("Object(1): %v", err)
	}
	if _, err := s.Object(0); err == nil {
		t.Error("Object(0) should fail")
	}
	if _, err := s.Object(69); err == nil {
		t.Error("Object(69) should fail")
	}
}

func TestObjectAtInRange(t *testing.T) {
	s := testSurvey(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		id := s.ObjectAt(randomUnit(rng))
		if id < 1 || int(id) > s.NumObjects() {
			t.Fatalf("ObjectAt returned out-of-range ID %d", id)
		}
	}
}

func TestCoverCapNonEmptyAndValid(t *testing.T) {
	s := testSurvey(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		c := geom.NewCap(randomUnit(rng), rng.Float64()*10+0.1)
		ids := s.CoverCap(c)
		if len(ids) == 0 {
			t.Fatal("empty cover")
		}
		for _, id := range ids {
			if id < 1 || int(id) > s.NumObjects() {
				t.Fatalf("cover contains invalid ID %d", id)
			}
		}
	}
}

func TestSkyDensityPositiveAndClustered(t *testing.T) {
	sky := NewSky(7, 10)
	rng := rand.New(rand.NewSource(5))
	minD, maxD := 1e18, 0.0
	for i := 0; i < 5000; i++ {
		d := sky.Density(randomUnit(rng))
		if d <= 0 {
			t.Fatalf("non-positive density %v", d)
		}
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD < 3*minD {
		t.Errorf("density not clustered: min %v max %v", minD, maxD)
	}
}

func TestSkyBlobRoles(t *testing.T) {
	sky := NewSky(7, 10)
	q := sky.Blobs(QueryHot)
	u := sky.Blobs(UpdateHot)
	if len(q) != 5 || len(u) != 5 {
		t.Errorf("blob roles: %d query, %d update, want 5/5", len(q), len(u))
	}
	if got := len(sky.Blobs(0)); got != 10 {
		t.Errorf("Blobs(0) = %d, want 10", got)
	}
}

func TestSurveyDeterministic(t *testing.T) {
	a := testSurvey(t)
	b := testSurvey(t)
	oa, ob := a.Objects(), b.Objects()
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("object %d differs across identical builds", i)
		}
	}
}

func TestSamplePositionFollowsDensity(t *testing.T) {
	s := testSurvey(t)
	rng := rand.New(rand.NewSource(6))
	// Average density at sampled positions must exceed the sky average
	// (samples concentrate in blobs).
	var sampleAvg, skyAvg float64
	const n = 2000
	for i := 0; i < n; i++ {
		sampleAvg += s.Density(s.SamplePosition(rng))
		skyAvg += s.Density(randomUnit(rng))
	}
	if sampleAvg <= skyAvg {
		t.Errorf("density-weighted sampling not concentrating: %v <= %v", sampleAvg/n, skyAvg/n)
	}
}

func TestSampleRows(t *testing.T) {
	s := testSurvey(t)
	rows := s.SampleRows(500, 42)
	if len(rows) != 500 {
		t.Fatalf("len = %d", len(rows))
	}
	for i, r := range rows {
		if r.RA < 0 || r.RA >= 360 || r.Dec < -90 || r.Dec > 90 {
			t.Fatalf("row %d has invalid coordinates (%v, %v)", i, r.RA, r.Dec)
		}
		if r.Object < 1 || int(r.Object) > s.NumObjects() {
			t.Fatalf("row %d has invalid object %d", i, r.Object)
		}
		if r.R < 13 || r.R > 23 {
			t.Fatalf("row %d magnitude out of range: %v", i, r.R)
		}
	}
	again := s.SampleRows(500, 42)
	if rows[123] != again[123] {
		t.Error("SampleRows not deterministic for equal seeds")
	}
}

// scanSample is the linear scan RowIndex.Sample replaces, kept as its
// oracle: walk the whole sample, keep rows whose object is in objs,
// stop at n.
func scanSample(rows []Row, objs []model.ObjectID, n int) []Row {
	want := make(map[model.ObjectID]struct{}, len(objs))
	for _, id := range objs {
		want[id] = struct{}{}
	}
	var out []Row
	for _, row := range rows {
		if _, ok := want[row.Object]; !ok {
			continue
		}
		out = append(out, row)
		if len(out) >= n {
			break
		}
	}
	return out
}

// TestQuickRowIndexMatchesScan: for random B(q) lists — duplicates,
// unknown IDs and born IDs (objects with no sampled rows) included —
// and random row budgets, the indexed sampler returns exactly the rows
// the scan does, in the same order.
func TestQuickRowIndexMatchesScan(t *testing.T) {
	s := testSurvey(t)
	rows := s.SampleRows(300, 42)
	if _, err := s.GrowObjects(rand.New(rand.NewSource(3)), 10, time.Second); err != nil {
		t.Fatal(err)
	}
	idx := NewRowIndex(rows)
	// IDs 1..68 are sampled base objects, 69..78 born ones; 0 and
	// 79..99 are unknown. Drawing from 100 values makes duplicates common.
	prop := func(raw []uint8, budget uint8) bool {
		objs := make([]model.ObjectID, len(raw))
		for i, b := range raw {
			objs[i] = model.ObjectID(b % 100)
		}
		n := int(budget%24) + 1
		got, want := idx.Sample(objs, n), scanSample(rows, objs, n)
		if !slices.Equal(got, want) {
			t.Logf("objs %v, n %d: index %v, scan %v", objs, n, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if got := idx.Sample([]model.ObjectID{1, 2, 3}, 0); got != nil {
		t.Errorf("Sample with n=0 = %v, want nil", got)
	}
}

func TestPaperGranularityObjectCounts(t *testing.T) {
	// The Fig 8(b) sweep requires surveys at each of the paper's object
	// counts.
	for _, n := range []int{10, 20, 68, 91} {
		cfg := DefaultConfig()
		cfg.NumObjects = n
		s, err := NewSurvey(cfg)
		if err != nil {
			t.Fatalf("NewSurvey(%d): %v", n, err)
		}
		if s.NumObjects() != n {
			t.Errorf("NumObjects = %d, want %d", s.NumObjects(), n)
		}
	}
}

func TestObjectSizeTotalForDifferentGranularities(t *testing.T) {
	// Total size should stay near the target regardless of granularity
	// (each object set covers the same sky).
	for _, n := range []int{20, 134} {
		cfg := DefaultConfig()
		cfg.NumObjects = n
		s, err := NewSurvey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(s.TotalSize())
		want := float64(cfg.TotalSize)
		if got < 0.4*want || got > 1.6*want {
			t.Errorf("n=%d: total %v too far from %v", n, s.TotalSize(), cfg.TotalSize)
		}
	}
}

func TestAddObjectSequentialIDs(t *testing.T) {
	s := testSurvey(t)
	base := s.NumObjects()
	next := s.NextID()
	if int(next) != base+1 {
		t.Fatalf("NextID = %d, want %d", next, base+1)
	}
	b := model.Birth{Object: model.Object{ID: next, Size: 200 * cost.MB}, RA: 120, Dec: 10}
	if err := s.AddObject(b); err != nil {
		t.Fatal(err)
	}
	if s.NumObjects() != base+1 {
		t.Errorf("NumObjects = %d after birth, want %d", s.NumObjects(), base+1)
	}
	got, err := s.Object(next)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 200*cost.MB {
		t.Errorf("born object size %v", got.Size)
	}
	if got.Trixel == 0 {
		t.Error("born object should inherit its cell's trixel")
	}
	// Out-of-sequence and duplicate births are rejected.
	if err := s.AddObject(model.Birth{Object: model.Object{ID: next, Size: cost.MB}}); err == nil {
		t.Error("duplicate ID should fail")
	}
	if err := s.AddObject(model.Birth{Object: model.Object{ID: next + 5, Size: cost.MB}}); err == nil {
		t.Error("gapped ID should fail")
	}
	if err := s.AddObject(model.Birth{Object: model.Object{ID: next + 1, Size: 0}}); err == nil {
		t.Error("non-positive size should fail")
	}
}

func TestBornObjectCoveredByCap(t *testing.T) {
	s := testSurvey(t)
	next := s.NextID()
	if err := s.AddObject(model.Birth{
		Object: model.Object{ID: next, Size: cost.GB}, RA: 45, Dec: -20,
	}); err != nil {
		t.Fatal(err)
	}
	ids := s.CoverCap(geom.CapFromRADec(45, -20, 1))
	found := false
	for _, id := range ids {
		if id == next {
			found = true
		}
	}
	if !found {
		t.Errorf("cap over the birth position covers %v, missing born object %d", ids, next)
	}
	// A cap on the opposite side of the sky does not cover the birth.
	for _, id := range s.CoverCap(geom.CapFromRADec(225, 20, 1)) {
		if id == next {
			t.Error("far cap should not cover the born object")
		}
	}
	// Objects() includes the newborn at index ID-1.
	objs := s.Objects()
	if objs[len(objs)-1].ID != next {
		t.Errorf("Objects tail = %d, want %d", objs[len(objs)-1].ID, next)
	}
}

func TestGrowObjectsDeterministic(t *testing.T) {
	a, b := testSurvey(t), testSurvey(t)
	ba, err := a.GrowObjects(rand.New(rand.NewSource(9)), 5, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.GrowObjects(rand.New(rand.NewSource(9)), 5, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(ba) != 5 || len(bb) != 5 {
		t.Fatalf("grew %d and %d objects", len(ba), len(bb))
	}
	for i := range ba {
		if ba[i] != bb[i] {
			t.Errorf("birth %d diverged: %+v vs %+v", i, ba[i], bb[i])
		}
		if ba[i].Object.Size < a.Config().MinObjectSize || ba[i].Object.Size > a.Config().MaxObjectSize {
			t.Errorf("birth %d size %v outside configured range", i, ba[i].Object.Size)
		}
	}
	if total := a.TotalSize(); total <= a.Config().TotalSize {
		t.Errorf("grown survey total %v should exceed base %v", total, a.Config().TotalSize)
	}
	if got := a.BornObjects(); len(got) != 5 {
		t.Errorf("BornObjects = %d, want 5", len(got))
	}
}
