package cluster_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

var ctx = context.Background()

// shardUp returns shard i's delta_shard_up sample in a router's stats
// answer (1 live, 0 not), or -1 when the answer has none for it.
func shardUp(st *netproto.StatsMsg, i int) float64 {
	prefix := fmt.Sprintf(`delta_shard_up{shard="%d",`, i)
	for _, m := range st.Metrics {
		if strings.HasPrefix(m.Name, prefix) {
			return m.Value
		}
	}
	return -1
}

// shardMetric returns shard i's sample of the named family in a
// router's stats answer.
func shardMetric(st *netproto.StatsMsg, name string, i int) float64 {
	return st.Metric(fmt.Sprintf(`%s{shard="%d"}`, name, i))
}

// startCluster spins up repository + N cache shards + router on
// loopback.
func startCluster(t *testing.T, shards int, policy func(int) core.Policy) (*catalog.Survey, *server.Repository, *cluster.LocalCluster) {
	t.Helper()
	survey, repo := startRepository(t)
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   shards,
		Policy:   policy,
		Scale:    netproto.DefaultScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	return survey, repo, lc
}

// testSurvey builds the 16-object survey most tests here run on.
func testSurvey(t *testing.T) *catalog.Survey {
	t.Helper()
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 16
	scfg.TotalSize = 16 * cost.GB
	scfg.MinObjectSize = 100 * cost.MB
	scfg.MaxObjectSize = 4 * cost.GB
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return survey
}

// startRepository starts a 16-object repository on loopback.
func startRepository(t *testing.T) (*catalog.Survey, *server.Repository) {
	t.Helper()
	survey := testSurvey(t)
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.DefaultScale()})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	return survey, repo
}

// spanningObjects picks one owned object per shard, so a query over
// them must scatter to every shard.
func spanningObjects(t *testing.T, lc *cluster.LocalCluster) []model.ObjectID {
	t.Helper()
	var objs []model.ObjectID
	for s := 0; s < lc.Ownership.Shards(); s++ {
		owned := lc.Ownership.ShardObjects(s)
		if len(owned) == 0 {
			t.Fatalf("shard %d owns nothing", s)
		}
		objs = append(objs, owned[0])
	}
	return objs
}

func TestClusterScatterGather(t *testing.T) {
	_, _, lc := startCluster(t, 3, nil)
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	objs := spanningObjects(t, lc)
	res, err := cl.Query(ctx, model.Query{
		Objects:   objs,
		Cost:      9 * cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Errorf("healthy cluster returned degraded result (missing %v)", res.MissingShards)
	}
	// The merged logical size must equal the original ν(q): fragment
	// cost shares sum exactly.
	if res.Logical != int64(9*cost.MB) {
		t.Errorf("merged logical = %d, want %d", res.Logical, 9*cost.MB)
	}
	if lc.Router.Scattered() != 1 {
		t.Errorf("scattered = %d, want 1", lc.Router.Scattered())
	}
	// Every shard saw exactly its fragment.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lc.Shards {
		if up := shardUp(st, i); up != 1 {
			t.Errorf("shard %d: delta_shard_up = %v, want 1", i, up)
		}
		if q := shardMetric(st, "delta_queries_total", i); q != 1 {
			t.Errorf("shard %d handled %v queries, want 1", i, q)
		}
	}
	if st.Queries != 3 {
		t.Errorf("aggregate queries = %d, want 3 (one fragment per shard)", st.Queries)
	}
	// An object outside the universe means client and cluster disagree
	// about the survey: the query is refused, not partially answered.
	if _, err := cl.Query(ctx, model.Query{
		Objects:   append([]model.ObjectID{9999}, objs...),
		Cost:      cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	}); err == nil || !strings.Contains(err.Error(), "outside the cluster's universe") {
		t.Errorf("query over an unknown object: err = %v, want the outside-the-universe refusal", err)
	}
}

func TestClusterSingleShardFastPath(t *testing.T) {
	_, _, lc := startCluster(t, 3, nil)
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	owned := lc.Ownership.ShardObjects(1)
	res, err := cl.Query(ctx, model.Query{
		Objects:   owned[:1],
		Cost:      cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.Logical != int64(cost.MB) {
		t.Errorf("single-shard result = %+v", res)
	}
	if lc.Router.Scattered() != 0 {
		t.Errorf("single-shard query counted as scattered")
	}
}

// TestClusterShardFailureDegrades kills one shard and checks the
// contract: queries spanning the dead shard return partial results
// with the degraded flag, queries wholly on the dead shard fail, and
// cluster stats report the shard as not alive.
func TestClusterShardFailureDegrades(t *testing.T) {
	_, _, lc := startCluster(t, 3, nil)
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const dead = 2
	lc.Shards[dead].Close()

	objs := spanningObjects(t, lc)
	var res *client.Result
	// The shard's death races the router noticing it; the first query
	// after the close may still find a half-open session, so poll
	// briefly for the degraded answer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err = cl.Query(ctx, model.Query{
			Objects:   objs,
			Cost:      9 * cost.MB,
			Tolerance: model.AnyStaleness,
			Time:      time.Second,
		})
		if err == nil && res.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no degraded result before deadline (last: res=%+v err=%v)", res, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !slices.Contains(res.MissingShards, dead) {
		t.Errorf("missing shards %v do not include %d", res.MissingShards, dead)
	}
	// The surviving fragments' shares: 2/3 of the 9MB cost.
	if res.Logical != int64(6*cost.MB) {
		t.Errorf("degraded logical = %d, want %d", res.Logical, 6*cost.MB)
	}
	if lc.Router.Degraded() == 0 {
		t.Error("router degraded counter never incremented")
	}

	// A query wholly owned by the dead shard has nothing to degrade
	// to: it must fail, not hang or silently return nothing.
	deadObjs := lc.Ownership.ShardObjects(dead)
	if _, err := cl.Query(ctx, model.Query{
		Objects:   deadObjs[:1],
		Cost:      cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      2 * time.Second,
	}); err == nil {
		t.Error("query wholly on the dead shard succeeded")
	}

	// Stats degrade the same way: the dead shard reports down and
	// carries no samples, the aggregate covers the survivors.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var survivorQueries float64
	for i := range lc.Shards {
		want := 1.0
		if i == dead {
			want = 0
		}
		if up := shardUp(st, i); up != want {
			t.Errorf("shard %d: delta_shard_up = %v, want %v", i, up, want)
		}
		survivorQueries += shardMetric(st, "delta_queries_total", i)
	}
	if slices.ContainsFunc(st.Metrics, func(m netproto.Sample) bool {
		return strings.Contains(m.Name, fmt.Sprintf(`{shard="%d"}`, dead))
	}) {
		t.Error("dead shard carries samples")
	}
	if float64(st.Queries) != survivorQueries || survivorQueries == 0 {
		t.Errorf("aggregate queries = %d, survivors' sum = %v", st.Queries, survivorQueries)
	}
}

// TestRouterStatsAggregation pushes traffic through the router and
// checks the aggregate equals the sum of the per-shard samples, with
// ownership keeping cached sets disjoint, and that the aggregate's
// delta_cached_objects counts the cluster's residents, not the fullest
// shard's.
func TestRouterStatsAggregation(t *testing.T) {
	survey, _, lc := startCluster(t, 4, nil)
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One expensive query per object: VCover loads objects whose size
	// the query cost covers, so shards fill up independently.
	for _, o := range survey.Objects() {
		if _, err := cl.Query(ctx, model.Query{
			Objects:   []model.ObjectID{o.ID},
			Cost:      o.Size,
			Tolerance: model.NoTolerance,
			Time:      time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var sumQueries, sumAtCache, sumShipped, sumLoad, sumCached float64
	seen := make(map[model.ObjectID]int)
	for i, shard := range lc.Shards {
		if up := shardUp(st, i); up != 1 {
			t.Fatalf("shard %d: delta_shard_up = %v, want 1", i, up)
		}
		sumQueries += shardMetric(st, "delta_queries_total", i)
		sumAtCache += shardMetric(st, "delta_queries_at_cache_total", i)
		sumShipped += shardMetric(st, "delta_queries_shipped_total", i)
		sumLoad += shardMetric(st, "delta_ledger_object_load_bytes_total", i)
		sumCached += shardMetric(st, "delta_cached_objects", i)
		for _, id := range shard.Stats().Cached {
			seen[id]++
			if owner, _ := lc.Ownership.Owner(id); owner != i {
				t.Errorf("shard %d caches object %d owned by shard %d", i, id, owner)
			}
		}
	}
	if float64(st.Queries) != sumQueries || st.Queries != 16 {
		t.Errorf("aggregate queries = %d, shard sum = %v, want 16", st.Queries, sumQueries)
	}
	if shipped := st.Metric("delta_queries_shipped_total"); float64(st.AtCache) != sumAtCache || shipped != sumShipped {
		t.Errorf("aggregate atCache/shipped = %d/%v, sums = %v/%v", st.AtCache, shipped, sumAtCache, sumShipped)
	}
	if float64(st.Ledger.ObjectLoad) != sumLoad {
		t.Errorf("aggregate load traffic = %v, sum = %v", st.Ledger.ObjectLoad, cost.Bytes(sumLoad))
	}
	for id, n := range seen {
		if n > 1 {
			t.Errorf("object %d cached on %d shards; ownership must keep them disjoint", id, n)
		}
	}
	if len(st.Cached) != len(seen) || sumCached != float64(len(seen)) {
		t.Errorf("aggregate cached %d objects, shards report %v (%d distinct)", len(st.Cached), sumCached, len(seen))
	}
	if got := st.Metric("delta_cached_objects"); got != float64(len(st.Cached)) {
		t.Errorf("aggregate delta_cached_objects = %v, want the %d objects of its Cached", got, len(st.Cached))
	}
}

// TestClusterInvalidationsRouteToOwners checks that each shard applies
// only its owned objects' updates off the shared invalidation stream.
func TestClusterInvalidationsRouteToOwners(t *testing.T) {
	survey, repo, lc := startCluster(t, 2, func(int) core.Policy { return core.NewReplica() })
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Replica shards preload their owned objects and subscribe to the
	// full stream; an update to shard 0's object must ship only there.
	target := lc.Ownership.ShardObjects(0)[0]
	repo.ApplyUpdate(model.Update{ID: 1, Object: target, Cost: 3 * cost.MB, Time: time.Second})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if lc.Shards[0].Ledger().UpdateShip == 3*cost.MB {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner shard never shipped the update (ledger %v)", lc.Shards[0].Ledger())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := lc.Shards[1].Ledger().UpdateShip; got != 0 {
		t.Errorf("non-owner shard shipped %v of updates", got)
	}
	_ = survey
}
