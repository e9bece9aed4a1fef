package cluster_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

// TestRouterResolvesRegionQueries covers the router-side sky-region
// path: a client that knows only a sky cap (no object universe) sends
// region queries, the router resolves them to B(q) through its
// memoized cover cache, scatters as usual, and the repeated-region
// traffic shows up as cover-cache hits in the aggregate stats.
func TestRouterResolvesRegionQueries(t *testing.T) {
	survey, err := catalog.NewSurvey(growthSurveyConfig(32))
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
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   4,
		Mode:     cluster.HTMAware,
		Policy:   func(int) core.Policy { return core.NewReplica() },
		Scale:    netproto.PayloadScale{},
		Resolver: survey.CoverCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const ra, dec, radius = 180.0, 0.0, 12.0
	want := survey.CoverCap(geom.CapFromRADec(ra, dec, radius))
	if len(want) < 2 {
		t.Fatalf("test region covers %d objects; want a multi-object cap", len(want))
	}
	var totalLogical int64
	const repeats = 5
	for i := 0; i < repeats; i++ {
		res, err := cl.QueryRegion(ctx, ra, dec, radius, model.Query{
			Cost:      cost.MB,
			Tolerance: model.AnyStaleness,
			Time:      time.Duration(i+1) * time.Second,
		})
		if err != nil {
			t.Fatalf("region query %d: %v", i, err)
		}
		if res.Degraded {
			t.Fatalf("region query %d degraded on a healthy cluster", i)
		}
		totalLogical += res.Logical
	}
	// Fragment cost shares sum exactly to ν(q) per query.
	if totalLogical != repeats*int64(cost.MB) {
		t.Errorf("summed logical = %d, want %d", totalLogical, repeats*int64(cost.MB))
	}

	// The result rows must come from the covered objects only.
	res, err := cl.QueryRegion(ctx, ra, dec, radius, model.Query{
		Cost: cost.MB, Tolerance: model.AnyStaleness, Time: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		obj := survey.ObjectAt(geom.FromRADec(row.RA, row.Dec))
		if !slices.Contains(want, obj) {
			t.Errorf("row at (%v,%v) belongs to object %d outside the region cover", row.RA, row.Dec, obj)
		}
	}

	// Repeated identical regions hit the router's memoized cover cache;
	// the counters ride the cluster stats aggregate.
	cs, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if misses := cs.Aggregate.Metric("delta_cover_cache_misses_total"); misses < 1 {
		t.Errorf("cover-cache misses = %v, want ≥1", misses)
	}
	if hits := cs.Aggregate.Metric("delta_cover_cache_hits_total"); hits < repeats {
		t.Errorf("cover-cache hits = %v, want ≥%d (region repeated)", hits, repeats)
	}

	// A region query against a router with no resolver fails cleanly.
	// (Growth is covered by TestRegionResolverLearnsBirths.)
	bare, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   2,
		Mode:     cluster.HTMAware,
		Policy:   func(int) core.Policy { return core.NewReplica() },
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	bareCl, err := client.DialCluster(bare.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bareCl.Close()
	if _, err := bareCl.QueryRegion(ctx, ra, dec, radius, model.Query{
		Cost: cost.MB, Tolerance: model.AnyStaleness, Time: time.Minute,
	}); err == nil {
		t.Error("region query succeeded against a router with no resolver")
	}
}

// TestRegionResolverLearnsBirths pins the resolver-growth contract:
// objects published after startup must join sky-region covers — the
// router's ResolverGrow extends the resolver survey with each adopted
// birth before the memoized covers are invalidated, so a region query
// over a newborn's position routes to it.
func TestRegionResolverLearnsBirths(t *testing.T) {
	const nBase = 16
	repoSurvey, err := catalog.NewSurvey(growthSurveyConfig(nBase))
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := catalog.NewSurvey(growthSurveyConfig(nBase))
	if err != nil {
		t.Fatal(err)
	}
	// The router's resolver survey: a third mirror, fed exclusively by
	// the ResolverGrow hook, so the test observes exactly what the
	// router taught it.
	resolverSurvey, err := catalog.NewSurvey(growthSurveyConfig(nBase))
	if err != nil {
		t.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: repoSurvey, Scale: netproto.PayloadScale{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  repoSurvey.Objects(),
		Shards:   2,
		Mode:     cluster.HTMAware,
		Scale:    netproto.PayloadScale{},
		Resolver: resolverSurvey.CoverCap,
		ResolverGrow: func(births []model.Birth) error {
			for _, b := range births {
				if err := resolverSurvey.AddObject(b); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	births, err := mirror.GrowObjects(rand.New(rand.NewSource(9)), 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the cover cache on each newborn's position BEFORE the
	// births, so the test also proves the post-growth invalidation (a
	// stale memoized cover would otherwise keep excluding the newborn).
	for _, b := range births {
		if _, err := cl.QueryRegion(ctx, b.RA, b.Dec, 2, model.Query{
			Cost: cost.KB, Tolerance: model.AnyStaleness, Time: time.Second,
		}); err != nil {
			t.Fatalf("pre-birth region query at (%v,%v): %v", b.RA, b.Dec, err)
		}
	}
	if _, err := cl.AddObjects(ctx, births); err != nil {
		t.Fatal(err)
	}
	for _, b := range births {
		cover := resolverSurvey.CoverCap(geom.CapFromRADec(b.RA, b.Dec, 2))
		if !slices.Contains(cover, b.Object.ID) {
			t.Errorf("resolver survey cover at (%v,%v) misses newborn %d: %v",
				b.RA, b.Dec, b.Object.ID, cover)
		}
		// And end to end: the same region query now routes the newborn
		// (its fragment lands on the owning shard without error).
		res, err := cl.QueryRegion(ctx, b.RA, b.Dec, 2, model.Query{
			Cost: cost.KB, Tolerance: model.AnyStaleness, Time: time.Minute,
		})
		if err != nil {
			t.Fatalf("post-birth region query at (%v,%v): %v", b.RA, b.Dec, err)
		}
		if res.Degraded {
			t.Errorf("post-birth region query at (%v,%v) degraded", b.RA, b.Dec)
		}
	}
}
