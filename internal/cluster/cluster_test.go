package cluster_test

import (
	"context"
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

// startCluster spins up repository + N cache shards + router on
// loopback.
func startCluster(t *testing.T, shards int, policy func(int) core.Policy) (*catalog.Survey, *server.Repository, *cluster.LocalCluster) {
	t.Helper()
	survey, repo := startRepository(t)
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   shards,
		Mode:     cluster.HTMAware,
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
	cl, err := client.DialCluster(lc.Router.Addr())
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
	cs, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range cs.Shards {
		if !st.Alive {
			t.Errorf("shard %d not alive", st.Shard)
		}
		if st.Stats.Queries != 1 {
			t.Errorf("shard %d handled %d queries, want 1", st.Shard, st.Stats.Queries)
		}
	}
	if cs.Aggregate.Queries != 3 {
		t.Errorf("aggregate queries = %d, want 3 (one fragment per shard)", cs.Aggregate.Queries)
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
	cl, err := client.DialCluster(lc.Router.Addr())
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
	cl, err := client.DialCluster(lc.Router.Addr())
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

	// Stats degrade the same way: the dead shard reports not-alive,
	// the aggregate covers the survivors.
	cs, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Degraded {
		t.Error("cluster stats not marked degraded")
	}
	alive := 0
	for _, st := range cs.Shards {
		if st.Shard == dead {
			if st.Alive {
				t.Error("dead shard reported alive")
			}
			if st.Err == "" {
				t.Error("dead shard carries no error")
			}
		} else if st.Alive {
			alive++
		}
	}
	if alive != 2 {
		t.Errorf("alive survivors = %d, want 2", alive)
	}
	// Topology snapshot agrees.
	topo := lc.Router.Topology()
	if topo.Shards[dead].Alive {
		t.Error("topology reports dead shard alive")
	}
}

// TestClusterStatsAggregation pushes traffic through the router and
// checks the aggregate equals the sum of the per-shard views, with
// ownership keeping cached sets disjoint.
func TestClusterStatsAggregation(t *testing.T) {
	survey, _, lc := startCluster(t, 4, nil)
	cl, err := client.DialCluster(lc.Router.Addr())
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
	cs, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var sumQueries, sumAtCache, sumShipped int64
	var sumLoad cost.Bytes
	seen := make(map[model.ObjectID]int)
	for _, st := range cs.Shards {
		if !st.Alive {
			t.Fatalf("shard %d not alive", st.Shard)
		}
		sumQueries += st.Stats.Queries
		sumAtCache += st.Stats.AtCache
		sumShipped += st.Stats.Shipped
		sumLoad += st.Stats.Ledger.ObjectLoad
		for _, id := range st.Stats.Cached {
			seen[id]++
			if owner, _ := lc.Ownership.Owner(id); owner != st.Shard {
				t.Errorf("shard %d caches object %d owned by shard %d", st.Shard, id, owner)
			}
		}
	}
	if cs.Aggregate.Queries != sumQueries || cs.Aggregate.Queries != 16 {
		t.Errorf("aggregate queries = %d, shard sum = %d, want 16", cs.Aggregate.Queries, sumQueries)
	}
	if cs.Aggregate.AtCache != sumAtCache || cs.Aggregate.Shipped != sumShipped {
		t.Errorf("aggregate atCache/shipped = %d/%d, sums = %d/%d",
			cs.Aggregate.AtCache, cs.Aggregate.Shipped, sumAtCache, sumShipped)
	}
	if cs.Aggregate.Ledger.ObjectLoad != sumLoad {
		t.Errorf("aggregate load traffic = %v, sum = %v", cs.Aggregate.Ledger.ObjectLoad, sumLoad)
	}
	for id, n := range seen {
		if n > 1 {
			t.Errorf("object %d cached on %d shards; ownership must keep them disjoint", id, n)
		}
	}
	if len(cs.Aggregate.Cached) != len(seen) {
		t.Errorf("aggregate cached %d objects, shards report %d", len(cs.Aggregate.Cached), len(seen))
	}
	// The plain Stats endpoint returns the same aggregate, so a
	// cluster-unaware client sees one big cache.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != cs.Aggregate.Queries || st.Policy != cs.Aggregate.Policy {
		t.Errorf("Stats() = %+v, disagrees with aggregate %+v", st, cs.Aggregate)
	}
}

// TestClusterInvalidationsRouteToOwners checks that each shard applies
// only its owned objects' updates off the shared invalidation stream.
func TestClusterInvalidationsRouteToOwners(t *testing.T) {
	survey, repo, lc := startCluster(t, 2, func(int) core.Policy { return core.NewReplica() })
	cl, err := client.DialCluster(lc.Router.Addr())
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

// TestClusterTransparentSingleCacheClusterStats checks the other
// direction of transparency: ClusterStats against an unsharded cache
// answers as a one-shard cluster.
func TestClusterTransparentSingleCacheClusterStats(t *testing.T) {
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 16
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.DefaultScale()})
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
		Shards:   1,
		Scale:    netproto.DefaultScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	// Dial the shard directly, bypassing the router.
	cl, err := client.DialCluster(lc.Shards[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cs, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Shards) != 1 || !cs.Shards[0].Alive || cs.Degraded {
		t.Errorf("single cache cluster stats = %+v", cs)
	}
}
