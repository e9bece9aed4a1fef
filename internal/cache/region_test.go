package cache_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"

	"github.com/deltacache/delta/internal/model"
)

// queryLog is NoCache recording the object list of every query it is
// asked to decide.
type queryLog struct {
	*core.NoCache
	mu      sync.Mutex
	queries [][]model.ObjectID
}

func (p *queryLog) OnQuery(q *model.Query) (core.Decision, error) {
	p.mu.Lock()
	p.queries = append(p.queries, slices.Sorted(slices.Values(q.Objects)))
	p.mu.Unlock()
	return p.NoCache.OnQuery(q)
}

// TestCacheResolvesRegionQueries covers the standalone-cache sky-region
// path: the middleware resolves a client's cap to B(q), exactly the
// survey's CoverCap, and serves the query normally.
func TestCacheResolvesRegionQueries(t *testing.T) {
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 16
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.PayloadScale{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	policy := &queryLog{NoCache: core.NewNoCache()}
	mw, err := cache.New(cache.Config{
		RepoAddr: repo.Addr(),
		Policy:   policy,
		Objects:  survey.Objects(),
		Capacity: 8 * cost.GB,
		Scale:    netproto.PayloadScale{},
		Regions:  survey,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.Start(); err != nil {
		t.Fatal(err)
	}
	defer mw.Close()

	cl, err := client.Dial(mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const ra, dec, radius = 90.0, 10.0, 8.0
	want := survey.CoverCap(geom.CapFromRADec(ra, dec, radius))
	if len(want) == 0 {
		t.Fatal("test region covers no objects")
	}
	const repeats = 4
	for i := 0; i < repeats; i++ {
		res, err := cl.QueryRegion(ctx, ra, dec, radius, model.Query{
			Cost:      cost.MB,
			Tolerance: model.AnyStaleness,
			Time:      time.Duration(i+1) * time.Second,
		})
		if err != nil {
			t.Fatalf("region query %d: %v", i, err)
		}
		if res.Logical != int64(cost.MB) {
			t.Fatalf("region query %d logical = %d, want %d", i, res.Logical, cost.MB)
		}
	}
	policy.mu.Lock()
	if len(policy.queries) != repeats {
		t.Errorf("the policy decided %d queries, want %d", len(policy.queries), repeats)
	}
	for i, got := range policy.queries {
		if !slices.Equal(got, want) {
			t.Errorf("region query %d resolved to %v, CoverCap gives %v", i, got, want)
		}
	}
	policy.mu.Unlock()

	// A client mixing an object list with a region is a usage error.
	if _, err := cl.QueryRegion(ctx, ra, dec, radius, model.Query{
		Objects: []model.ObjectID{1}, Cost: cost.MB,
	}); err == nil {
		t.Error("region query with an explicit object list was accepted")
	}
}

// regionCache starts a repository over a 16-object survey and a
// NoCache standalone cache whose Regions is a second survey built from
// the same config, so that survey grows only through the cache. It
// returns the cache, its Regions survey and a third twin to draw
// births from.
func regionCache(t *testing.T) (mw *cache.Middleware, regions, mirror *catalog.Survey) {
	t.Helper()
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 16
	surveys := make([]*catalog.Survey, 3)
	for i := range surveys {
		s, err := catalog.NewSurvey(scfg)
		if err != nil {
			t.Fatal(err)
		}
		surveys[i] = s
	}
	repo, err := server.New(server.Config{Survey: surveys[0], Scale: netproto.PayloadScale{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	mw, err = cache.New(cache.Config{
		RepoAddr: repo.Addr(),
		Policy:   core.NewNoCache(),
		Objects:  surveys[0].Objects(),
		Capacity: 8 * cost.GB,
		Regions:  surveys[1],
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mw.Close() })
	return mw, surveys[1], surveys[2]
}

// TestCacheAddObjectsOutOfOrderGrowsRegions adopts births 18, 17 and
// 19, in that order, as a cache hearing them from its publish path and
// its announcement stream can: its Regions survey must still grow to
// 19 objects, and each newborn must join its region's cover.
func TestCacheAddObjectsOutOfOrderGrowsRegions(t *testing.T) {
	mw, regions, mirror := regionCache(t)
	births, err := mirror.GrowObjects(rand.New(rand.NewSource(9)), 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 0, 2} {
		if n, err := mw.AddObjects(context.Background(), births[i:i+1]); err != nil || n != 1 {
			t.Fatalf("AddObjects(birth %d) = %d, %v; want 1 new", births[i].Object.ID, n, err)
		}
	}
	if n := regions.NumObjects(); n != 19 {
		t.Errorf("Regions survey holds %d objects, want 19", n)
	}
	for _, b := range births {
		if cover := regions.CoverCap(geom.CapFromRADec(b.RA, b.Dec, 2)); !slices.Contains(cover, b.Object.ID) {
			t.Errorf("cover at (%v,%v) misses newborn %d: %v", b.RA, b.Dec, b.Object.ID, cover)
		}
	}
}

// TestCacheRefusesMalformedRegions sends regions that are not caps on
// the sphere: each is answered with a MsgError, and the session still
// serves a well-formed region afterwards.
func TestCacheRefusesMalformedRegions(t *testing.T) {
	mw, _, _ := regionCache(t)
	cl, err := client.Dial(mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	query := model.Query{Cost: cost.KB, Tolerance: model.AnyStaleness, Time: time.Second}
	for _, tc := range []struct {
		name       string
		ra, dec, r float64
	}{
		{"NaN radius", 90, 10, math.NaN()},
		{"+Inf radius", 90, 10, math.Inf(1)},
		{"NaN RA", math.NaN(), 10, 2},
		{"+Inf Dec", 90, math.Inf(1), 2},
		{"Dec 200", 90, 200, 2},
		{"radius 400°", 90, 10, 400},
	} {
		var remote *netproto.RemoteError
		if _, err := cl.QueryRegion(ctx, tc.ra, tc.dec, tc.r, query); !errors.As(err, &remote) {
			t.Errorf("%s: QueryRegion = %v, want a MsgError", tc.name, err)
		}
	}
	if _, err := cl.QueryRegion(ctx, 90, 10, 180, query); err != nil {
		t.Errorf("a 180° region after the refusals: %v", err)
	}
}

// TestCacheRegionCoversPublishedBirth drives a standalone cache's region
// growth end to end: a birth published through the cache joins the
// cover a region query at its position resolves to.
func TestCacheRegionCoversPublishedBirth(t *testing.T) {
	mw, regions, mirror := regionCache(t)
	births, err := mirror.GrowObjects(rand.New(rand.NewSource(9)), 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b := births[0]
	cl, err := client.Dial(mw.Addr(), client.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	// coverSize is how many objects the cache resolved the region at
	// the newborn's position to, read from the query's span.
	coverSize := func() int {
		t.Helper()
		res, err := cl.QueryRegion(ctx, b.RA, b.Dec, 2, model.Query{
			Cost: cost.KB, Tolerance: model.AnyStaleness, Time: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range res.Spans {
			if sp.Name == "cache" {
				return sp.Objects
			}
		}
		t.Fatalf("no cache span in %+v", res.Spans)
		return 0
	}
	before := coverSize()
	if n, err := cl.AddObjects(ctx, births); err != nil || n != 1 {
		t.Fatalf("AddObjects = %d, %v; want 1", n, err)
	}
	if after := coverSize(); after != before+1 {
		t.Errorf("region cover at the newborn holds %d objects after its birth, want %d", after, before+1)
	}
	if cover := regions.CoverCap(geom.CapFromRADec(b.RA, b.Dec, 2)); !slices.Contains(cover, b.Object.ID) {
		t.Errorf("Regions cover misses newborn %d: %v", b.Object.ID, cover)
	}
}
