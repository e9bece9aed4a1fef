package cluster_test

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

// startResizableCluster spins up repository + N VCover shards sized to
// hold their owned subsets, and warms every object into its owner (a
// query whose cost covers the object's load cost makes VCover load
// it). It also returns the repository's address.
func startResizableCluster(t *testing.T, shards int) (*catalog.Survey, *cluster.LocalCluster, string) {
	t.Helper()
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 32
	scfg.TotalSize = 32 * cost.GB
	scfg.MinObjectSize = cost.GB
	scfg.MaxObjectSize = cost.GB
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
	t.Cleanup(func() { repo.Close() })
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   shards,
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })

	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, o := range survey.Objects() {
		if _, err := cl.Query(ctx, model.Query{
			Objects:   []model.ObjectID{o.ID},
			Cost:      o.Size,
			Tolerance: model.AnyStaleness,
			Time:      time.Second,
		}); err != nil {
			t.Fatalf("warmup query for object %d: %v", o.ID, err)
		}
	}
	return survey, lc, repo.Addr()
}

// sweepHitRate queries every object once and returns the fraction
// answered from cache. The probe cost is tiny so VCover never decides
// to (re)load on its account — the sweep observes residency, it does
// not create it.
func sweepHitRate(t *testing.T, survey *catalog.Survey, addr string) float64 {
	t.Helper()
	cl, err := client.Dial(addr, client.WithRequestTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	hits := 0
	objects := survey.Objects()
	for _, o := range objects {
		res, err := cl.Query(ctx, model.Query{
			Objects:   []model.ObjectID{o.ID},
			Cost:      cost.KB,
			Tolerance: model.AnyStaleness,
			Time:      time.Minute,
		})
		if err != nil {
			t.Fatalf("sweep query for object %d: %v", o.ID, err)
		}
		if res.Source == "cache" {
			hits++
		}
	}
	return float64(hits) / float64(len(objects))
}

// TestResizeLiveTraffic is the acceptance test for live elastic
// resharding: 4→8 and back 8→4 while 16 concurrent clients query
// continuously. Zero queries may fail; degraded answers are allowed
// only during the transition windows; and the post-resize hit rate
// must stay within 10% of the pre-resize one (warm migration).
func TestResizeLiveTraffic(t *testing.T) {
	survey, lc, _ := startResizableCluster(t, 4)
	objects := survey.Objects()

	preHit := sweepHitRate(t, survey, lc.Router.Addr())
	if preHit < 0.99 {
		t.Fatalf("warmup left hit rate at %.2f, want ~1", preHit)
	}

	const nClients = 16
	var (
		stop            atomic.Bool
		inWindow        atomic.Bool
		queries         atomic.Int64
		failures        atomic.Int64
		degradedIn      atomic.Int64
		degradedOutside atomic.Int64
		errOnce         sync.Once
		firstErr        error
		wg              sync.WaitGroup
	)
	for c := 0; c < nClients; c++ {
		cl, err := client.Dial(lc.Router.Addr(), client.WithRequestTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; !stop.Load(); i++ {
				windowBefore := inWindow.Load()
				o := objects[rng.Intn(len(objects))]
				res, err := cl.Query(ctx, model.Query{
					Objects:   []model.ObjectID{o.ID},
					Cost:      cost.KB,
					Tolerance: model.AnyStaleness,
					Time:      time.Minute + time.Duration(i)*time.Millisecond,
				})
				windowAfter := inWindow.Load()
				queries.Add(1)
				if err != nil {
					failures.Add(1)
					errOnce.Do(func() { firstErr = err })
					continue
				}
				if res.Degraded {
					if windowBefore || windowAfter {
						degradedIn.Add(1)
					} else {
						degradedOutside.Add(1)
					}
				}
			}
		}(c, cl)
	}

	settle := func() { time.Sleep(100 * time.Millisecond) }
	settle()

	// Grow 4→8, live.
	inWindow.Store(true)
	st, err := lc.Resize(ctx, 8, false)
	if err != nil {
		t.Fatalf("resize 4→8: %v", err)
	}
	settle()
	inWindow.Store(false)
	if st.Phase != "done" || st.Epoch != 1 || st.From != 4 || st.To != 8 {
		t.Errorf("resize status = %+v", st)
	}
	if st.MovedObjects == 0 {
		t.Error("grow 4→8 migrated nothing; expected warm arrivals")
	}
	if got := len(lc.Router.Topology().Shards); got != 8 {
		t.Errorf("topology has %d shards after grow, want 8", got)
	}
	settle()

	// Shrink 8→4, live.
	inWindow.Store(true)
	st, err = lc.Resize(ctx, 4, false)
	if err != nil {
		t.Fatalf("resize 8→4: %v", err)
	}
	settle()
	inWindow.Store(false)
	if st.Epoch != 2 || st.From != 8 || st.To != 4 {
		t.Errorf("shrink status = %+v", st)
	}
	if st.MovedObjects == 0 {
		t.Error("shrink 8→4 migrated nothing; expected warm arrivals")
	}
	settle()

	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Errorf("%d of %d queries failed during live resizes; first: %v",
			n, queries.Load(), firstErr)
	}
	if n := degradedOutside.Load(); n != 0 {
		t.Errorf("%d degraded answers outside the transition windows", n)
	}
	if queries.Load() < 100 {
		t.Errorf("only %d queries ran; the traffic never overlapped the resizes", queries.Load())
	}

	postHit := sweepHitRate(t, survey, lc.Router.Addr())
	if postHit < preHit*0.9 {
		t.Errorf("hit rate after resizes = %.2f, want within 10%% of pre-resize %.2f", postHit, preHit)
	}
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cs, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Metric("delta_migrated_in_total") == 0 {
		t.Error("delta_migrated_in_total = 0; warm arrivals should be visible in stats")
	}
}

// TestResizeColdBaselineLosesWarmth pins the difference warm migration
// makes: a resize with migration skipped flips routing correctly but
// the moved objects arrive cold, so the post-resize hit rate drops by
// roughly the moving fraction.
func TestResizeColdBaselineLosesWarmth(t *testing.T) {
	survey, lc, _ := startResizableCluster(t, 4)

	old := lc.Ownership
	st, err := lc.Resize(ctx, 8, true /* skip migration */)
	if err != nil {
		t.Fatalf("cold resize: %v", err)
	}
	if st.MovedObjects != 0 {
		t.Errorf("cold resize reports %d moved objects", st.MovedObjects)
	}
	moving, err := core.Moving(old, lc.Ownership)
	if err != nil {
		t.Fatal(err)
	}
	if len(moving) == 0 {
		t.Fatal("4→8 moved nothing; test needs a real ownership diff")
	}

	hit := sweepHitRate(t, survey, lc.Router.Addr())
	expected := 1 - float64(len(moving))/float64(len(survey.Objects()))
	if hit > expected+0.05 {
		t.Errorf("cold resize hit rate %.2f; moved objects (%d/%d) should have been cold (expected ≈%.2f)",
			hit, len(moving), len(survey.Objects()), expected)
	}
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cs, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.Metric("delta_migrated_in_total"); got != 0 {
		t.Errorf("cold resize imported %v objects", got)
	}
}

// TestResizeProbeFailureArrivesCold pins the failure rule of the
// residency probe: in a 4→8 resize whose old shard 2 died before the
// probe (and is replaced by a fresh shard at the same index), the
// resize still completes, every object whose old primary answered the
// probe is warm at its new holder, and every object the dead shard held
// arrives cold.
func TestResizeProbeFailureArrivesCold(t *testing.T) {
	survey, lc, repoAddr := startResizableCluster(t, 4)
	old := lc.Ownership
	spawn := func(s int) string {
		t.Helper()
		mw, err := cache.New(cache.Config{
			RepoAddr:        repoAddr,
			Policy:          core.NewVCover(core.DefaultVCoverConfig()),
			Objects:         survey.Objects(),
			Shard:           true,
			ReshardCapacity: cache.ReplicatedCapacity,
			Scale:           netproto.PayloadScale{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mw.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mw.Close() })
		return mw.Addr()
	}
	const dead = 2
	if err := lc.Shards[dead].Close(); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 8)
	for i := range addrs {
		if i < 4 && i != dead {
			addrs[i] = lc.Shards[i].Addr()
		} else {
			addrs[i] = spawn(i)
		}
	}
	st, err := lc.Router.Resize(ctx, cluster.ResizeSpec{Shards: addrs})
	if err != nil {
		t.Fatalf("resize with a dead source: %v", err)
	}
	if st.Phase != "done" || st.To != 8 {
		t.Errorf("resize status = %+v", st)
	}
	if !strings.Contains(st.LastError, "probe") {
		t.Errorf("LastError = %q, want the failed probe reported", st.LastError)
	}
	if st.MovedObjects == 0 {
		t.Error("no warm arrivals from the live sources")
	}

	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, o := range survey.Objects() {
		res, err := cl.Query(ctx, model.Query{
			Objects: []model.ObjectID{o.ID}, Cost: cost.KB,
			Tolerance: model.AnyStaleness, Time: time.Minute,
		})
		if err != nil {
			t.Fatalf("query object %d: %v", o.ID, err)
		}
		src, _ := old.Owner(o.ID)
		if warm := res.Source == "cache"; warm != (src != dead) {
			t.Errorf("object %d (old shard %d) answered from %s", o.ID, src, res.Source)
		}
	}
}

// TestResizeAdminFrames drives a resize through the wire protocol the
// way an operator would: client.Resize against the router, then
// client.RebalanceStatus.
func TestResizeAdminFrames(t *testing.T) {
	survey, lc, _ := startResizableCluster(t, 2)
	_ = survey

	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Grow 2→4 over the wire: spawn the two extra shards first, as an
	// operator would, then hand the router the full address list.
	// LocalCluster.Resize does exactly that; here we need the admin
	// frame path, so grow via a second LocalCluster-spawned pair is
	// not available — instead resize down 2→1, which needs no new
	// processes.
	addrs := []string{lc.Shards[0].Addr()}
	st, err := cl.Resize(ctx, addrs)
	if err != nil {
		t.Fatalf("admin resize: %v", err)
	}
	if st.Phase != "done" || st.To != 1 {
		t.Errorf("admin resize status = %+v", st)
	}
	if st.MovedObjects == 0 {
		t.Error("admin resize migrated nothing")
	}
	got, err := cl.RebalanceStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != 1 || got.Active {
		t.Errorf("rebalance status after resize = %+v", got)
	}
	// The routing table now fronts one shard; every object answers.
	hit := sweepHitRate(t, survey, lc.Router.Addr())
	if hit < 0.99 {
		t.Errorf("hit rate after 2→1 admin resize = %.2f, want ~1 (all state migrated to the survivor)", hit)
	}
}

// TestResizeRejectsBadAddresses: shard address lists come from outside
// the program (-shards, delta-client -resize, MsgAdminResize). One that
// repeats an address would give two topology positions one session, so
// one shard would get both positions' owned sets at the same epoch and
// keep only the later; an empty one cannot be dialed. Both are refused
// before anything changes: the epoch and the rebalance status stay put
// and every object still answers from cache. NewRouter refuses them
// too.
func TestResizeRejectsBadAddresses(t *testing.T) {
	survey, lc, repoAddr := startResizableCluster(t, 2)
	a := lc.Shards[0].Addr()
	epoch := lc.Router.Topology().Epoch
	for _, addrs := range [][]string{{a, a}, {a, ""}} {
		if _, err := lc.Router.Resize(ctx, cluster.ResizeSpec{Shards: addrs}); err == nil {
			t.Errorf("Resize(%q) succeeded", addrs)
		}
		if got := lc.Router.Topology().Epoch; got != epoch {
			t.Errorf("Resize(%q) moved the epoch %d → %d", addrs, epoch, got)
		}
		if st := lc.Router.RebalanceStatus(); st.Phase != "idle" {
			t.Errorf("Resize(%q) changed the rebalance status: %+v", addrs, st)
		}
		if hit := sweepHitRate(t, survey, lc.Router.Addr()); hit < 0.99 {
			t.Errorf("hit rate after refused Resize(%q) = %.2f, want ~1", addrs, hit)
		}
		if r, err := cluster.NewRouter(cluster.Config{Shards: addrs, Ownership: lc.Router.Ownership(), RepoAddr: repoAddr}); err == nil {
			r.Close()
			t.Errorf("NewRouter(%q) succeeded", addrs)
		}
	}
}

// TestRouterCloseDuringInflightScatter is the regression test for
// Router.Close racing live scatters: closing the router while
// fragments dwell on slow shards must fail the pending queries
// promptly (not hang them) and leak no goroutines.
func TestRouterCloseDuringInflightScatter(t *testing.T) {
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
		Shards:   3,
		// Each shard dwells 100ms in every decision, one query at a
		// time, so the scatters below are reliably in flight at Close.
		Policy: slowReplicas(100 * time.Millisecond),
		Scale:  netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	baseline := runtime.NumGoroutine()

	router := lc.Router
	const nQueries = 16
	var spanning []model.ObjectID
	for s := 0; s < lc.Ownership.Shards(); s++ {
		spanning = append(spanning, lc.Ownership.ShardObjects(s)[0])
	}
	clients := make([]*client.Client, nQueries)
	for i := range clients {
		cl, err := client.Dial(router.Addr())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			// Errors are expected once the router closes; what matters
			// is that every call returns.
			cl.Query(ctx, model.Query{
				Objects:   spanning,
				Cost:      3 * cost.MB,
				Tolerance: model.AnyStaleness,
				Time:      time.Duration(i) * time.Millisecond,
			})
		}(i, cl)
	}
	go func() { wg.Wait(); close(done) }()

	time.Sleep(30 * time.Millisecond) // let the scatters reach the shards
	if err := router.Close(); err != nil {
		t.Logf("router close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queries still pending 5s after Router.Close; in-flight scatters must fail promptly")
	}
	for _, cl := range clients {
		cl.Close()
	}

	// Goroutine accounting: everything the router and the clients
	// spawned must unwind (shard servers keep their own).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after Router.Close: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
