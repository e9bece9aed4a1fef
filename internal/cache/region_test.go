package cache_test

import (
	"context"
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

// TestCacheResolvesRegionQueries covers the standalone-cache sky-region
// path: the middleware resolves a client's cap to B(q) through its
// memoized cover cache and serves the query normally; hit/miss
// counters surface in StatsMsg.
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
	mw, err := cache.New(cache.Config{
		RepoAddr: repo.Addr(),
		Policy:   core.NewNoCache(),
		Objects:  survey.Objects(),
		Capacity: 8 * cost.GB,
		Scale:    netproto.PayloadScale{},
		Resolver: survey.CoverCap,
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
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := stats.Metric("delta_cover_cache_hits_total"), stats.Metric("delta_cover_cache_misses_total")
	if misses < 1 || hits < repeats-1 {
		t.Errorf("cover cache = %v hits / %v misses, want ≥%d / ≥1",
			hits, misses, repeats-1)
	}

	// A client mixing an object list with a region is a usage error.
	if _, err := cl.QueryRegion(ctx, ra, dec, radius, model.Query{
		Objects: []model.ObjectID{1}, Cost: cost.MB,
	}); err == nil {
		t.Error("region query with an explicit object list was accepted")
	}
}
