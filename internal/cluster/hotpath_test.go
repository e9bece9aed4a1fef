package cluster_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
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

// TestRouterResultCacheInvalidation is the staleness contract test for
// the router's result cache: a cached merged result must stop being
// served the moment the repository publishes an update to any member
// object — the re-query scatters again instead of answering from the
// now-evicted entry.
func TestRouterResultCacheInvalidation(t *testing.T) {
	_, repo, lc := startCluster(t, 2, func(int) core.Policy { return core.NewReplica() })
	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	objs := spanningObjects(t, lc)
	q := model.Query{
		Objects:   objs,
		Cost:      cost.Bytes(len(objs)) * cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	}
	if _, err := cl.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := lc.Router.ResultCacheHits(); got < 1 {
		t.Fatalf("repeat of an identical query recorded %d cache hits, want >= 1", got)
	}
	// The shared answer is re-stamped per client: its Logical must be
	// this query's declared ν(q), keeping cost shares exact.
	if res.Logical != int64(q.Cost) {
		t.Errorf("cached result logical = %d, want the declared cost %d", res.Logical, q.Cost)
	}

	// An update to one member object must evict the cached entry via
	// the invalidation stream (asynchronous, so poll).
	repo.ApplyUpdate(model.Update{ID: 1, Object: objs[0], Cost: cost.MB, Time: 2 * time.Second})
	deadline := time.Now().Add(5 * time.Second)
	for lc.Router.ResultCacheInvalidations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("result cache never saw the member-object invalidation")
		}
		time.Sleep(2 * time.Millisecond)
	}

	misses := func() float64 {
		st, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.Metric("delta_router_result_cache_misses_total")
	}
	hits, missed := lc.Router.ResultCacheHits(), misses()
	if _, err := cl.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got := lc.Router.ResultCacheHits(); got != hits {
		t.Errorf("query after invalidation hit the cache (%d -> %d hits): stale answer", hits, got)
	}
	if got := misses(); got != missed+1 {
		t.Errorf("query after invalidation recorded %v misses, want %v", got, missed+1)
	}
}

// TestRouterResultCacheEpochFlipClears pins the resize interaction:
// flipping the routing epoch clears the result cache wholesale, so a
// query warm in the cache before the resize scatters afresh after it.
func TestRouterResultCacheEpochFlipClears(t *testing.T) {
	_, _, lc := startCluster(t, 2, func(int) core.Policy { return core.NewReplica() })
	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	objs := spanningObjects(t, lc)
	q := model.Query{
		Objects:   objs,
		Cost:      cost.Bytes(len(objs)) * cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if got := lc.Router.ResultCacheHits(); got < 1 {
		t.Fatalf("warmup recorded %d cache hits, want >= 1", got)
	}

	if _, err := lc.Resize(ctx, 3, false); err != nil {
		t.Fatal(err)
	}

	hits := lc.Router.ResultCacheHits()
	res, err := cl.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("post-resize query degraded")
	}
	if got := lc.Router.ResultCacheHits(); got != hits {
		t.Errorf("query after the epoch flip hit the cache (%d -> %d hits): resize must clear it", hits, got)
	}
}

// startGrowingCluster starts a 16-object repository and an HTM-aware
// cluster over it, and returns beside them a mirror survey: the same
// catalog, untouched, for tests to draw births from (the catalog
// assigns sequential IDs, so the mirror's births are the repository's
// next ones).
func startGrowingCluster(t *testing.T, shards int, policy func(int) core.Policy) (*catalog.Survey, *server.Repository, *cluster.LocalCluster) {
	t.Helper()
	mirror, err := catalog.NewSurvey(growthSurveyConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	repoSurvey, err := catalog.NewSurvey(growthSurveyConfig(16))
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
	t.Cleanup(func() { repo.Close() })
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  repoSurvey.Objects(),
		Shards:   shards,
		Mode:     cluster.HTMAware,
		Policy:   policy,
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	return mirror, repo, lc
}

// TestRouterResultCacheSurvivesBirth pins the growth interaction: a
// birth is the same epoch with no existing object moved, so adopting it
// neither evicts a warm result nor counts as an invalidation — while a
// query naming the newborn still answers exactly, and an update to a
// member of the warm result after the birth still evicts it.
func TestRouterResultCacheSurvivesBirth(t *testing.T) {
	mirror, repo, lc := startGrowingCluster(t, 2, func(int) core.Policy { return core.NewReplica() })
	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	objs := spanningObjects(t, lc)
	q := model.Query{
		Objects:   objs,
		Cost:      cost.Bytes(len(objs)) * cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	}
	if _, err := cl.Query(ctx, q); err != nil {
		t.Fatal(err)
	}

	births, err := mirror.GrowObjects(rand.New(rand.NewSource(11)), 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddObjects(ctx, births); err != nil {
		t.Fatal(err)
	}
	if got := lc.Router.Births(); got != int64(len(births)) {
		t.Fatalf("router adopted %d births, want %d", got, len(births))
	}

	hits := lc.Router.ResultCacheHits()
	if _, err := cl.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got := lc.Router.ResultCacheHits(); got != hits+1 {
		t.Errorf("warm query after a birth: %d -> %d result-cache hits, want a hit", hits, got)
	}
	if got := lc.Router.ResultCacheInvalidations(); got != 0 {
		t.Errorf("adopting births counted %d invalidations, want 0", got)
	}

	// The newborn routes: a query naming it (beside a warm member)
	// answers undegraded with its exact declared cost.
	grown := model.Query{
		Objects:   []model.ObjectID{objs[0], births[0].Object.ID},
		Cost:      3 * cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      2 * time.Second,
	}
	res, err := cl.Query(ctx, grown)
	if err != nil {
		t.Fatalf("query naming newborn %d: %v", births[0].Object.ID, err)
	}
	if res.Degraded || res.Logical != int64(grown.Cost) {
		t.Errorf("query naming the newborn: degraded=%v logical=%d, want undegraded %d", res.Degraded, res.Logical, grown.Cost)
	}

	// Both warm results name objs[0]; an update to it after the birth
	// must still evict them.
	repo.ApplyUpdate(model.Update{ID: 1, Object: objs[0], Cost: cost.MB, Time: 3 * time.Second})
	deadline := time.Now().Add(5 * time.Second)
	for lc.Router.ResultCacheInvalidations() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("update after the birth evicted %d cached results, want 2", lc.Router.ResultCacheInvalidations())
		}
		time.Sleep(2 * time.Millisecond)
	}
	hits = lc.Router.ResultCacheHits()
	if _, err := cl.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got := lc.Router.ResultCacheHits(); got != hits {
		t.Errorf("query after the update hit the cache (%d -> %d hits): stale answer", hits, got)
	}
}

// TestRouterResultCacheGapThenResume pins what the router's result cache
// does across a repository bounce. During the gap no notice can evict
// anything, so the cache is wiped and admits nothing: the warm query is
// answered by the shards (or fails), never from the router. Once the
// repository is back on its address and the router has resubscribed,
// the cache serves again.
func TestRouterResultCacheGapThenResume(t *testing.T) {
	survey, repo, lc := startCluster(t, 2, func(int) core.Policy { return core.NewReplica() })
	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	objs := spanningObjects(t, lc)
	q := model.Query{
		Objects:   objs,
		Cost:      cost.Bytes(len(objs)) * cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if got := lc.Router.ResultCacheHits(); got != 1 {
		t.Fatalf("warmup recorded %d cache hits, want 1", got)
	}

	// Closing the repository severs the stream; the wipe of the one
	// resident entry shows as an invalidation.
	addr := repo.Addr()
	repo.Close()
	waitFor(t, "the router to wipe its result cache", func() bool { return lc.Router.ResultCacheInvalidations() > 0 })
	// Twice: were the first answer admitted, the second would hit.
	for i := 0; i < 2; i++ {
		_, _ = cl.Query(ctx, q)
	}
	if got := lc.Router.ResultCacheHits(); got != 1 {
		t.Errorf("router recorded %d result-cache hits during the gap, want only the 1 from warmup", got)
	}

	restartRepository(t, survey, addr, "")
	waitFor(t, "result-cache hits after the resume", func() bool {
		_, _ = cl.Query(ctx, q)
		return lc.Router.ResultCacheHits() > 1
	})
}

// restartRepository starts a repository over survey on addr, the
// address a closed one listened on.
func restartRepository(t *testing.T, survey *catalog.Survey, addr, dataDir string, before ...model.Update) *server.Repository {
	t.Helper()
	repo, err := server.New(server.Config{Survey: survey, Addr: addr, DataDir: dataDir, Scale: netproto.DefaultScale()})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range before {
		repo.ApplyUpdate(u)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	return repo
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRouterCoalescesIdenticalQueries pins the singleflight contract:
// a flash crowd of identical concurrent queries costs one scatter —
// followers join the leader's flight (or hit the cache it populates)
// and every client still gets its own exact cost share.
func TestRouterCoalescesIdenticalQueries(t *testing.T) {
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
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   2,
		// Each shard dwells in every decision, so the followers reliably
		// arrive while the leader's scatter is in flight.
		Policy: slowReplicas(50 * time.Millisecond),
		Scale:  netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	objs := spanningObjects(t, lc)
	const crowd = 8
	q := model.Query{
		Objects:   objs,
		Cost:      cost.Bytes(len(objs)) * cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	}
	var wg sync.WaitGroup
	errs := make([]error, crowd)
	results := make([]*client.Result, crowd)
	for i := 0; i < crowd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := client.DialCluster(lc.Router.Addr())
			if err != nil {
				errs[i] = err
				return
			}
			defer cl.Close()
			results[i], errs[i] = cl.Query(ctx, q)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("crowd client %d: %v", i, err)
		}
		if results[i].Degraded {
			t.Errorf("crowd client %d got a degraded answer", i)
		}
		if results[i].Logical != int64(q.Cost) {
			t.Errorf("crowd client %d logical = %d, want %d", i, results[i].Logical, q.Cost)
		}
	}
	shared := lc.Router.Coalesced() + lc.Router.ResultCacheHits()
	if shared < crowd/2 {
		t.Errorf("only %d of %d identical queries were answered shared (coalesced=%d hits=%d)",
			shared, crowd, lc.Router.Coalesced(), lc.Router.ResultCacheHits())
	}
}

// TestBatchedBirthGrants pins the grant-batching contract: concurrent
// birth publications are adopted in batches — one multi-object grant
// frame per owning shard per adoption round, not one frame per object
// — and every born object is queryable once its publish call returns.
func TestBatchedBirthGrants(t *testing.T) {
	mirror, _, lc := startGrowingCluster(t, 3, nil)

	// Publish through the router's publish path in bursts (the catalog
	// assigns sequential IDs, so bursts are ordered; concurrency rides
	// the announcement stream, soaked elsewhere). The batching contract
	// under test: a K-birth burst ships at most one grant frame per
	// owning shard — not one frame per object.
	const (
		bursts   = 2
		perBurst = 8
	)
	growRng := rand.New(rand.NewSource(11))
	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < bursts; i++ {
		births, err := mirror.GrowObjects(growRng, perBurst, time.Duration(i)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		n, err := cl.AddObjects(ctx, births)
		if err != nil {
			t.Fatalf("burst %d: %v", i, err)
		}
		if n != perBurst {
			t.Errorf("burst %d: accepted %d births, want %d", i, n, perBurst)
		}

		// The publish contract: once AddObjects returns, the burst's
		// objects are queryable through the router — batching must not
		// defer adoption past the publish ack.
		for _, b := range births {
			res, qerr := cl.Query(ctx, model.Query{
				Objects: []model.ObjectID{b.Object.ID}, Cost: cost.KB,
				Tolerance: model.AnyStaleness, Time: time.Minute,
			})
			if qerr != nil {
				t.Errorf("burst %d: born object %d not queryable: %v", i, b.Object.ID, qerr)
			} else if res.Degraded {
				t.Errorf("burst %d: born object %d answered degraded", i, b.Object.ID)
			}
		}
	}

	const total = int64(bursts * perBurst)
	if got := lc.Router.Births(); got != total {
		t.Errorf("router adopted %d births, want %d", got, total)
	}
	batches := lc.Router.GrantBatches()
	if batches < 1 {
		t.Fatal("no batched grant frames were shipped")
	}
	// Batching bound: each adoption round grants at most one frame per
	// shard, and each burst is at most one round (fewer frames when a
	// burst's births all land on a subset of shards). 16 births in 2
	// bursts across 3 shards must ship at most 6 grant frames — the
	// unbatched path would have shipped 16.
	if maxFrames := int64(bursts * lc.Ownership.Shards()); batches > maxFrames {
		t.Errorf("shipped %d grant frames for %d bursts across %d shards (max %d)",
			batches, bursts, lc.Ownership.Shards(), maxFrames)
	}

	// The shards admitted every birth through the grant frames.
	cs, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if born := cs.Aggregate.Metric("delta_objects_born_total"); born != float64(total) {
		t.Errorf("shards admitted %v births, want %d", born, total)
	}
	if got := cs.Aggregate.Metric("delta_router_grant_batches_total"); got != float64(batches) {
		t.Errorf("aggregate stats report %v grant batches, router counted %d", got, batches)
	}
}

// goroutinesCreated reads how many goroutines the process has started so
// far off the ID of a fresh one: the runtime numbers goroutines in
// order, handing each P a block of 16 IDs at a time.
func goroutinesCreated(t *testing.T) int {
	t.Helper()
	header := make(chan string)
	go func() {
		buf := make([]byte, 64)
		header <- string(buf[:runtime.Stack(buf, false)])
	}()
	var id int
	h := <-header
	if _, err := fmt.Sscanf(h, "goroutine %d ", &id); err != nil {
		t.Fatalf("no goroutine ID in %q: %v", h, err)
	}
	return id
}

// TestOneFragmentQuerySpawnsNothing pins the hit path's goroutine cost:
// once each connection's mux workers exist, a scattered query owned by
// one shard starts no goroutine at client, router or shard — the
// router fetches the lone fragment on the worker that took the query.
func TestOneFragmentQuerySpawnsNothing(t *testing.T) {
	survey, repo := startRepository(t)
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr:        repo.Addr(),
		Objects:         survey.Objects(),
		Shards:          2,
		Mode:            cluster.HTMAware,
		Policy:          func(int) core.Policy { return core.NewReplica() },
		Scale:           netproto.DefaultScale(),
		ResultCacheSize: -1, // every query scatters
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	q := model.Query{
		Objects:   lc.Ownership.ShardObjects(0)[:1],
		Cost:      cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	}
	query := func(n int) {
		t.Helper()
		for range n {
			if _, err := cl.Query(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	query(100) // warm: the object is resident and every hop has a parked worker
	const queries = 1000
	served := lc.Shards[0].Stats().Queries
	running, created := runtime.NumGoroutine(), goroutinesCreated(t)
	query(queries)
	if got := lc.Shards[0].Stats().Queries - served; got != queries {
		t.Fatalf("shard 0 served %d of %d queries: they did not all scatter", got, queries)
	}
	// Three spawns per query (client → router, gather, router → shard)
	// before workers were reused; a few dozen IDs of slack cover the
	// per-P ID blocks and a worker started late.
	if got := goroutinesCreated(t) - created; got > queries/10 {
		t.Errorf("%d goroutines started during %d one-fragment queries, want none per query", got, queries)
	}
	if got := runtime.NumGoroutine(); got > running+4 {
		t.Errorf("goroutines %d -> %d across %d queries", running, got, queries)
	}
}
