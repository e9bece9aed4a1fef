package cluster_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
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

// startReplicated spins up repository + shards + router with a K-way
// replicated ownership, letting the test mutate the LocalConfig (hedge
// settings, per-shard exec delays, policies) before the spawn.
func startReplicated(t *testing.T, shards, replicas int, mutate func(*cluster.LocalConfig)) (*catalog.Survey, *cluster.LocalCluster) {
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
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.DefaultScale()})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })

	cfg := cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   shards,
		Mode:     cluster.HTMAware,
		Replicas: replicas,
		Scale:    netproto.DefaultScale(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	lc, err := cluster.SpawnLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	return survey, lc
}

// TestReplicatedShardKillSoak is the replication contract test: with
// K=2, killing a shard mid-soak must cost the clients nothing — every
// query keeps succeeding undegraded with exact cost shares, because the
// router fails the dead shard's fragments over to the surviving
// replicas. Contrast TestClusterShardFailureDegrades, the same kill at
// K=1, where degradation is the best the router can do.
func TestReplicatedShardKillSoak(t *testing.T) {
	_, lc := startReplicated(t, 3, 2, func(cfg *cluster.LocalConfig) {
		// The soak replays a handful of fixed query shapes, which the
		// router's result cache would happily answer without ever
		// scattering again — masking the kill this test exists to
		// exercise. Disable it so every query reaches the shards.
		cfg.ResultCacheSize = -1
	})

	// One query shape per shard: that shard's primaries (the fragment
	// the kill orphans), plus one spanning all shards.
	shapes := make([][]model.ObjectID, 0, lc.Ownership.Shards()+1)
	var spanning []model.ObjectID
	for s := 0; s < lc.Ownership.Shards(); s++ {
		var primaries []model.ObjectID
		for _, id := range lc.Ownership.ShardObjects(s) {
			if p, ok := lc.Ownership.Owner(id); ok && p == s {
				primaries = append(primaries, id)
			}
		}
		if len(primaries) == 0 {
			t.Fatalf("shard %d has no primary objects", s)
		}
		shapes = append(shapes, primaries)
		spanning = append(spanning, primaries[0])
	}
	shapes = append(shapes, spanning)

	const (
		workers = 4
		soak    = 1200 * time.Millisecond
		killAt  = 300 * time.Millisecond
	)
	var (
		wg        sync.WaitGroup
		queries   atomic.Int64
		failures  atomic.Int64
		degraded  atomic.Int64
		badShares atomic.Int64
		stop      = make(chan struct{})
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.DialCluster(lc.Router.Addr())
			if err != nil {
				t.Errorf("worker %d dial: %v", w, err)
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				objs := shapes[rng.Intn(len(shapes))]
				nu := cost.Bytes(len(objs)) * cost.MB
				res, err := cl.Query(ctx, model.Query{
					Objects:   objs,
					Cost:      nu,
					Tolerance: model.AnyStaleness,
					Time:      time.Second,
				})
				queries.Add(1)
				if err != nil {
					failures.Add(1)
					t.Logf("worker %d query %d failed: %v", w, i, err)
					continue
				}
				if res.Degraded {
					degraded.Add(1)
					t.Logf("worker %d query %d degraded (missing %v)", w, i, res.MissingShards)
				}
				if res.Logical != int64(nu) {
					badShares.Add(1)
					t.Logf("worker %d query %d logical %d, want %d", w, i, res.Logical, nu)
				}
			}
		}(w)
	}

	const dead = 1
	time.Sleep(killAt)
	lc.Shards[dead].Close()
	time.Sleep(soak - killAt)
	close(stop)
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Errorf("%d of %d queries failed across the shard kill", n, queries.Load())
	}
	if n := degraded.Load(); n > 0 {
		t.Errorf("%d of %d queries degraded across the shard kill (K=2 must mask one death)", n, queries.Load())
	}
	if n := badShares.Load(); n > 0 {
		t.Errorf("%d of %d queries lost cost shares under failover", n, queries.Load())
	}
	if queries.Load() < int64(workers*2) {
		t.Errorf("soak only issued %d queries", queries.Load())
	}
	if lc.Router.Failover() == 0 {
		t.Error("router failover counter never incremented — the kill was never exercised")
	}
	if lc.Router.Degraded() != 0 {
		t.Errorf("router degraded counter = %d, want 0", lc.Router.Degraded())
	}
}

// TestReplicatedDoubleKill pins that the replica walk goes as deep as
// the replica set: at K=3, killing two of an object's three holders
// still costs the clients nothing — undegraded, exact shares — because
// a fragment whose rank-1 holder is dead too walks on to rank 2. Killing
// the third holder leaves nothing to walk to, and the query must fail
// promptly rather than hang.
func TestReplicatedDoubleKill(t *testing.T) {
	_, lc := startReplicated(t, 4, 3, func(cfg *cluster.LocalConfig) {
		cfg.ResultCacheSize = -1 // every query must reach the shards
	})
	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The object set: one shard's primaries, which (HTM-aware) share
	// their whole ranked holder list.
	var objs []model.ObjectID
	for _, id := range lc.Ownership.ShardObjects(0) {
		if p, _ := lc.Ownership.Owner(id); p == 0 {
			objs = append(objs, id)
		}
	}
	if len(objs) == 0 {
		t.Fatal("shard 0 has no primary objects")
	}
	holders, _ := lc.Ownership.Owners(objs[0])
	if len(holders) != 3 {
		t.Fatalf("object %d has holders %v, want 3", objs[0], holders)
	}
	nu := cost.Bytes(len(objs))*cost.MB + 1
	query := func() (*client.Result, error) {
		qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		return cl.Query(qctx, model.Query{Objects: objs, Cost: nu, Tolerance: model.AnyStaleness, Time: time.Second})
	}

	lc.Shards[holders[0]].Close()
	lc.Shards[holders[1]].Close()
	for i := 0; i < 8; i++ {
		res, err := query()
		if err != nil {
			t.Fatalf("query %d with one live holder of three: %v", i, err)
		}
		if res.Degraded || res.Logical != int64(nu) {
			t.Errorf("query %d degraded=%v (missing %v) logical=%d, want undegraded with ν(q)=%d",
				i, res.Degraded, res.MissingShards, res.Logical, nu)
		}
	}
	if lc.Router.Failover() == 0 {
		t.Error("router failover counter never incremented — the kills were never exercised")
	}
	if lc.Router.Degraded() != 0 {
		t.Errorf("router degraded counter = %d, want 0 (K=3 must mask two deaths)", lc.Router.Degraded())
	}

	lc.Shards[holders[2]].Close()
	if res, err := query(); err == nil {
		t.Errorf("query with every holder dead answered %+v", res)
	} else if errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("query with every holder dead hung: %v", err)
	}
}

// slowReplica is Replica with a stall before every query decision. A
// shard decides under its policy lock, so a shard built with it holds
// each query for delay, one query at a time. It embeds *core.Replica,
// not core.Policy, so that Preload, Warm and AddObjects stay promoted.
type slowReplica struct {
	*core.Replica
	delay time.Duration
}

func (p slowReplica) OnQuery(q *model.Query) (core.Decision, error) {
	time.Sleep(p.delay)
	return p.Replica.OnQuery(q)
}

// slowReplicas is a LocalConfig.Policy that builds a slowReplica with
// delay on every shard.
func slowReplicas(delay time.Duration) func(int) core.Policy {
	return func(int) core.Policy { return slowReplica{core.NewReplica(), delay} }
}

// TestClusterHedgedReadsMaskStraggler pins the hedged-read contract: a
// shard that stalls no longer sets the query tail, because after the
// hedge delay the router races the fragment against the next replica
// and takes the first complete answer.
func TestClusterHedgedReadsMaskStraggler(t *testing.T) {
	const (
		slow      = 0
		slowDelay = 400 * time.Millisecond
	)
	_, lc := startReplicated(t, 3, 2, func(cfg *cluster.LocalConfig) {
		cfg.Hedge = true
		cfg.HedgeDelay = 3 * time.Millisecond
		// The replica policy keeps every object cache-resident, so the
		// fast replicas answer from cache at once; the straggler stalls
		// in every decision.
		cfg.Policy = func(s int) core.Policy {
			if s == slow {
				return slowReplica{core.NewReplica(), slowDelay}
			}
			return core.NewReplica()
		}
	})
	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var slowObjs []model.ObjectID
	for _, id := range lc.Ownership.ShardObjects(slow) {
		if p, ok := lc.Ownership.Owner(id); ok && p == slow {
			slowObjs = append(slowObjs, id)
		}
	}
	if len(slowObjs) == 0 {
		t.Fatalf("shard %d has no primary objects", slow)
	}

	// Warm the caches: the first touch of each object ships from the
	// repository while the replica policy admits it.
	for _, objs := range [][]model.ObjectID{slowObjs, lc.Ownership.ShardObjects(1), lc.Ownership.ShardObjects(2)} {
		if _, err := cl.Query(ctx, model.Query{
			Objects:   objs,
			Cost:      cost.MB,
			Tolerance: model.AnyStaleness,
			Time:      time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 4; i++ {
		nu := cost.Bytes(len(slowObjs)) * cost.MB
		start := time.Now()
		res, err := cl.Query(ctx, model.Query{
			Objects:   slowObjs,
			Cost:      nu,
			Tolerance: model.AnyStaleness,
			Time:      time.Second,
		})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("hedged query %d: %v", i, err)
		}
		if res.Degraded {
			t.Errorf("hedged query %d degraded (missing %v)", i, res.MissingShards)
		}
		if res.Logical != int64(nu) {
			t.Errorf("hedged query %d logical %d, want %d", i, res.Logical, nu)
		}
		// The replica answers in a few network round trips; only the
		// straggler takes slowDelay. Half the straggler's stall is a
		// generous CI bound that still proves the hedge fired and won.
		if elapsed >= slowDelay/2 {
			t.Errorf("hedged query %d took %v, straggler delay is %v — hedge never won", i, elapsed, slowDelay)
		}
	}
	if lc.Router.Hedged() == 0 {
		t.Error("router hedged counter never incremented")
	}
	if lc.Router.Degraded() != 0 {
		t.Errorf("router degraded counter = %d, want 0", lc.Router.Degraded())
	}
}

// TestClusterReplicaStats pins the replication factor's trip through
// the stats plane: every shard reports its configured K, and the
// cluster aggregate carries K itself (not a sum across shards).
func TestClusterReplicaStats(t *testing.T) {
	_, lc := startReplicated(t, 3, 2, nil)
	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cs, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// K is the router's gauge: no shard is told it.
	for _, st := range cs.Shards {
		if k := st.Stats.Metric("delta_router_replicas"); k != 0 {
			t.Errorf("shard %d reports K=%v; only the router knows K", st.Shard, k)
		}
	}
	if k := cs.Aggregate.Metric("delta_router_replicas"); k != 2 {
		t.Errorf("aggregate reports K=%v, want 2", k)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if k := st.Metric("delta_router_replicas"); k != 2 {
		t.Errorf("aggregate StatsMsg reports K=%v, want 2", k)
	}

	// At K=2 every object is held by exactly two shards, so the total
	// held count is twice the universe.
	total := 0
	for s := 0; s < lc.Ownership.Shards(); s++ {
		total += len(lc.Ownership.ShardObjects(s))
	}
	if want := 2 * len(lc.Ownership.Universe()); total != want {
		t.Errorf("shards hold %d object slots, want %d", total, want)
	}
}

// TestClusterStatsListsEachResidentOnce pins the aggregate's resident
// list at K=2: an object two shards hold is one cached object of the
// cluster, so the aggregate lists the sorted union of the shards'
// lists, each ID once.
func TestClusterStatsListsEachResidentOnce(t *testing.T) {
	_, lc := startReplicated(t, 2, 2, func(cfg *cluster.LocalConfig) {
		cfg.Policy = func(int) core.Policy { return core.NewReplica() }
	})
	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cs, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var union []model.ObjectID
	for _, st := range cs.Shards {
		union = append(union, st.Stats.Cached...)
	}
	held := len(union)
	slices.Sort(union)
	union = slices.Compact(union)
	if held == len(union) {
		t.Fatalf("shards hold %d residents with no object on two of them; K=2 Replica shards should share every one", held)
	}
	if !slices.Equal(cs.Aggregate.Cached, union) {
		t.Errorf("aggregate lists %d residents, want the %d-object union %v of the shards' lists:\n%v",
			len(cs.Aggregate.Cached), len(union), union, cs.Aggregate.Cached)
	}
}
