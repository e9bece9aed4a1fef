package catalog

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
)

// regionSurveys builds n surveys from cfg: the resolver's, its twins
// and the mirrors births are drawn from.
func regionSurveys(t testing.TB, cfg Config, n int) []*Survey {
	t.Helper()
	out := make([]*Survey, n)
	for i := range out {
		s, err := NewSurvey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestRegionResolverResolvesDuringGrowth resolves regions from 8
// goroutines while a ninth grows the survey with births fed out of
// order, on surveys of both partition kinds (run under -race). Grow
// adopts in ID order, so the survey only ever holds a prefix of the
// births; every answer must equal a twin survey's sequential CoverCap
// at a prefix between the sizes read just before and just after it.
func TestRegionResolverResolvesDuringGrowth(t *testing.T) {
	uniform := DefaultConfig()
	uniform.NumObjects, uniform.Uniform = 8192, true
	for _, cfg := range []Config{DefaultConfig(), uniform} {
		surveys := regionSurveys(t, cfg, 3)
		s, twin, mirror := surveys[0], surveys[1], surveys[2]
		births, err := mirror.GrowObjects(rand.New(rand.NewSource(28)), 24, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// Half the regions sit on newborns, so growth changes them.
		type region struct{ ra, dec, r float64 }
		rng := rand.New(rand.NewSource(28))
		regions := make([]region, 0, 96)
		for _, b := range births {
			regions = append(regions, region{b.RA, b.Dec, 0.5 + rng.Float64()*2})
		}
		for len(regions) < cap(regions) {
			regions = append(regions, region{rng.Float64() * 360, rng.Float64()*180 - 90, 0.3 + rng.Float64()*1.7})
		}
		// want[k][i] is region i's cover once the first k births landed.
		base := s.NumObjects()
		want := make([][][]model.ObjectID, len(births)+1)
		for k := range want {
			want[k] = make([][]model.ObjectID, len(regions))
			for i, g := range regions {
				want[k][i] = twin.CoverCap(geom.CapFromRADec(g.ra, g.dec, g.r))
			}
			if k < len(births) {
				if err := twin.AddObject(births[k]); err != nil {
					t.Fatal(err)
				}
			}
		}

		rr := NewRegionResolver(s)
		var grown atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer grown.Store(true)
			// Pairs swapped: 2, 1, 4, 3, … so each odd birth waits.
			for i := 0; i+1 < len(births); i += 2 {
				if err := rr.Grow([]model.Birth{births[i+1]}); err != nil {
					t.Error(err)
				}
				if err := rr.Grow([]model.Birth{births[i], births[i+1]}); err != nil {
					t.Error(err)
				}
			}
		}()
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; !grown.Load() || k < 2*len(regions); k++ {
					i := (k*7 + g) % len(regions)
					lo := s.NumObjects() - base
					got, err := rr.Region(regions[i].ra, regions[i].dec, regions[i].r)
					hi := s.NumObjects() - base
					if err != nil {
						t.Errorf("goroutine %d, region %d: %v", g, i, err)
						return
					}
					if !slices.ContainsFunc(want[lo:hi+1], func(w [][]model.ObjectID) bool { return slices.Equal(got, w[i]) }) {
						t.Errorf("goroutine %d, region %d: cover %v is no sequential cover between births %d and %d", g, i, got, lo, hi)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if n := s.NumObjects() - base; n != len(births) {
			t.Fatalf("survey grew by %d births, want %d", n, len(births))
		}
	}
}

// TestCoverCapConcurrentThroughCoverCache resolves 320 regions from 8
// goroutines at once through one resolver over a survey that does not
// grow, on surveys of both partition kinds (run under -race); every
// answer must equal a twin survey's sequential CoverCap.
func TestCoverCapConcurrentThroughCoverCache(t *testing.T) {
	uniform := DefaultConfig()
	uniform.NumObjects, uniform.Uniform = 8192, true
	type region struct{ ra, dec, r float64 }
	rng := rand.New(rand.NewSource(28))
	regions := make([]region, 320)
	for i := range regions {
		regions[i] = region{rng.Float64() * 360, rng.Float64()*180 - 90, 0.3 + rng.Float64()*1.7}
	}
	for _, cfg := range []Config{DefaultConfig(), uniform} {
		surveys := regionSurveys(t, cfg, 2)
		s, twin := surveys[0], surveys[1]
		want := make([][]model.ObjectID, len(regions))
		for i, g := range regions {
			want[i] = twin.CoverCap(geom.CapFromRADec(g.ra, g.dec, g.r))
		}
		rr := NewRegionResolver(s)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 4*len(regions); k++ {
					i := (k*7 + g) % len(regions)
					got, err := rr.Region(regions[i].ra, regions[i].dec, regions[i].r)
					if err != nil {
						t.Errorf("goroutine %d, region %d: %v", g, i, err)
						return
					}
					if !slices.Equal(got, want[i]) {
						t.Errorf("goroutine %d, region %d: cover %v, sequential %v", g, i, got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestRegionResolverGrowsInIDOrder feeds births out of order, repeated
// and past the hold bound: the survey grows densely in ID order, a
// birth waits for the gap below it, and a refused birth is reported.
func TestRegionResolverGrowsInIDOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumObjects = 16
	surveys := regionSurveys(t, cfg, 2)
	s, mirror := surveys[0], surveys[1]
	all, err := mirror.GrowObjects(rand.New(rand.NewSource(9)), maxHeldBirths+8, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	births := func(ids ...model.ObjectID) []model.Birth {
		out := make([]model.Birth, len(ids))
		for i, id := range ids {
			out[i] = all[id-17]
		}
		return out
	}
	rr := NewRegionResolver(s)
	for _, step := range []struct {
		births []model.Birth
		next   model.ObjectID
	}{
		{births(18), 17},
		{append([]model.Birth{{Object: model.Object{ID: 16, Size: 1}}}, births(17)...), 19},
		{births(20, 17, 19), 21},
	} {
		if err := rr.Grow(step.births); err != nil {
			t.Fatal(err)
		}
		if got := s.NextID(); got != step.next {
			t.Fatalf("after %d births the next ID is %d, want %d", len(step.births), got, step.next)
		}
	}
	for i, b := range s.BornObjects() {
		if want := model.ObjectID(17 + i); b.Object.ID != want {
			t.Fatalf("born object %d has ID %d, want %d", i, b.Object.ID, want)
		}
	}

	ahead := make([]model.ObjectID, maxHeldBirths+1)
	for i := range ahead {
		ahead[i] = model.ObjectID(22 + i)
	}
	if err := rr.Grow(births(ahead...)); err == nil || !strings.Contains(err.Error(), "dropped birth") {
		t.Fatalf("Grow past the hold bound = %v, want a dropped birth", err)
	}
	if err := rr.Grow(births(21)); err != nil {
		t.Fatal(err)
	}
	if got, want := s.NextID(), model.ObjectID(22+maxHeldBirths); got != want {
		t.Errorf("after the gap filled the next ID is %d, want %d (the held births, not the dropped one)", got, want)
	}

	// A birth the survey rejects is reported, not hidden.
	bad := all[len(all)-1]
	bad.Object = model.Object{ID: s.NextID()}
	if err := rr.Grow([]model.Birth{bad}); err == nil {
		t.Error("Grow hid the survey's rejection of a zero-size birth")
	}
}

// TestRegionResolverRefusesMalformedRegions pins what the resolver
// refuses: a nil resolver every region, and any region that is not a
// cap on the sphere. The edges of the valid range resolve, each to
// exactly CoverCap's answer.
func TestRegionResolverRefusesMalformedRegions(t *testing.T) {
	s := regionSurveys(t, DefaultConfig(), 1)[0]
	rr := NewRegionResolver(s)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name         string
		ra, dec, r   float64
		errSubstring string
	}{
		{"NaN radius", 10, 10, nan, "not finite"},
		{"+Inf radius", 10, 10, inf, "not finite"},
		{"NaN RA", nan, 10, 1, "not finite"},
		{"-Inf Dec", 10, -inf, 1, "not finite"},
		{"Dec above the pole", 10, 200, 1, "Dec"},
		{"Dec below the pole", 10, -90.5, 1, "Dec"},
		{"radius past the antipode", 10, 10, 400, "radius"},
		{"zero radius", 10, 10, 0, "radius"},
		{"negative radius", 10, 10, -1, "radius"},
	} {
		if ids, err := rr.Region(tc.ra, tc.dec, tc.r); err == nil || !strings.Contains(err.Error(), tc.errSubstring) {
			t.Errorf("%s: Region = %v, %v; want an error naming %q", tc.name, ids, err, tc.errSubstring)
		}
	}
	for _, ok := range [][3]float64{{10, 90, 1}, {10, -90, 1}, {-720, 0, 1}, {10, 10, 180}} {
		ids, err := rr.Region(ok[0], ok[1], ok[2])
		if want := s.CoverCap(geom.CapFromRADec(ok[0], ok[1], ok[2])); err != nil || !slices.Equal(ids, want) {
			t.Errorf("Region%v = %v, %v; want %v", ok, ids, err, want)
		}
	}
	if ids, _ := rr.Region(10, 10, 180); len(ids) != s.NumObjects() {
		t.Errorf("a 180° region covers %d of %d objects", len(ids), s.NumObjects())
	}

	var none *RegionResolver
	if NewRegionResolver(nil) != nil {
		t.Error("NewRegionResolver(nil) is not nil")
	}
	if _, err := none.Region(0, 45, 1); err == nil {
		t.Error("a nil resolver resolved a region")
	}
	if err := none.Grow(s.BornObjects()); err != nil {
		t.Errorf("nil Grow = %v", err)
	}
}

// FuzzRegion: any (ra, dec, radius) gives either an error or exactly
// CoverCap's answer for the cap, and never panics; a cap on the sphere
// always resolves.
func FuzzRegion(f *testing.F) {
	s := regionSurveys(f, DefaultConfig(), 1)[0]
	rr := NewRegionResolver(s)
	// The seed corpus is testdata/fuzz/FuzzRegion.
	f.Fuzz(func(t *testing.T, ra, dec, radius float64) {
		ids, err := rr.Region(ra, dec, radius)
		valid := finite(ra) && finite(dec) && finite(radius) && math.Abs(dec) <= 90 && radius > 0 && radius <= 180
		switch {
		case err != nil && valid:
			t.Fatalf("Region(%v, %v, %v) refused a cap on the sphere: %v", ra, dec, radius, err)
		case err != nil:
		case !valid:
			t.Fatalf("Region(%v, %v, %v) = %v, want an error", ra, dec, radius, ids)
		case !slices.Equal(ids, s.CoverCap(geom.CapFromRADec(ra, dec, radius))):
			t.Fatalf("Region(%v, %v, %v) = %v, CoverCap disagrees", ra, dec, radius, ids)
		}
	})
}
