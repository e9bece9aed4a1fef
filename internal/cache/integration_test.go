package cache_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

// ctx is the background context shared by the integration tests;
// cancellation paths are covered in the client package.
var ctx = context.Background()

// deployment spins up a repository + middleware pair on loopback.
type deployment struct {
	survey *catalog.Survey
	repo   *server.Repository
	mw     *cache.Middleware
}

func startDeployment(t *testing.T, policy core.Policy) *deployment {
	t.Helper()
	d := startRepo(t)
	d.mw = newCache(t, d, policy)
	if err := d.mw.Start(); err != nil {
		t.Fatal(err)
	}
	return d
}

// startRepo starts the repository half of a deployment.
func startRepo(t *testing.T) *deployment {
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
	return &deployment{survey: survey, repo: repo}
}

// newCache constructs (but does not Start) the cache half.
func newCache(t *testing.T, d *deployment, policy core.Policy) *cache.Middleware {
	t.Helper()
	mw, err := cache.New(cache.Config{
		RepoAddr: d.repo.Addr(),
		Policy:   policy,
		Objects:  d.survey.Objects(),
		Capacity: 8 * cost.GB,
		Scale:    netproto.DefaultScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mw.Close() })
	return mw
}

func TestEndToEndQueryThroughCache(t *testing.T) {
	d := startDeployment(t, core.NewVCover(core.DefaultVCoverConfig()))
	cl, err := client.Dial(d.mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	obj := d.survey.Objects()[0]
	res, err := cl.Query(ctx, model.Query{
		Objects:   []model.ObjectID{obj.ID},
		Cost:      10 * cost.MB,
		Tolerance: model.NoTolerance,
		Time:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "repository" {
		t.Errorf("cold cache should ship to repository, got %q", res.Source)
	}
	if res.Logical != int64(10*cost.MB) {
		t.Errorf("logical size = %d", res.Logical)
	}
	// The ledger must have charged exactly one query shipment.
	snap := d.mw.Ledger()
	if snap.QueryShip != 10*cost.MB {
		t.Errorf("ledger query ship = %v, want 10MB", snap.QueryShip)
	}
}

func TestEndToEndLoadThenHit(t *testing.T) {
	d := startDeployment(t, core.NewVCover(core.DefaultVCoverConfig()))
	cl, err := client.Dial(d.mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	obj := d.survey.Objects()[0]
	// A query whose cost covers the object's load cost forces a
	// deterministic load (VCover's LoadManager).
	if _, err := cl.Query(ctx, model.Query{
		Objects:   []model.ObjectID{obj.ID},
		Cost:      obj.Size,
		Tolerance: model.NoTolerance,
		Time:      time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	snap := d.mw.Ledger()
	if snap.ObjectLoad != obj.Size {
		t.Fatalf("expected the object to load (ledger %v, want %v)", snap.ObjectLoad, obj.Size)
	}
	// Second query on the same object answers at the cache for free.
	res, err := cl.Query(ctx, model.Query{
		Objects:   []model.ObjectID{obj.ID},
		Cost:      5 * cost.MB,
		Tolerance: model.NoTolerance,
		Time:      2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "cache" {
		t.Errorf("warm query should hit the cache, got %q", res.Source)
	}
	if got := d.mw.Ledger().QueryShip; got != obj.Size {
		t.Errorf("no extra query shipping expected, ledger shows %v", got)
	}
}

func TestEndToEndInvalidationAndUpdateShipping(t *testing.T) {
	d := startDeployment(t, core.NewVCover(core.DefaultVCoverConfig()))
	cl, err := client.Dial(d.mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	obj := d.survey.Objects()[0]
	// Warm the object into the cache.
	if _, err := cl.Query(ctx, model.Query{
		Objects: []model.ObjectID{obj.ID}, Cost: obj.Size,
		Tolerance: model.NoTolerance, Time: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	// Pipeline delivers an update; the invalidation must reach the
	// cache's policy before a currency-demanding query arrives.
	d.repo.ApplyUpdate(model.Update{ID: 1, Object: obj.ID, Cost: cost.MB, Time: 2 * time.Second})
	waitFor(t, func() bool {
		// The cheap update should be shipped in response to an
		// expensive fresh query; poll until the invalidation landed.
		res, err := cl.Query(ctx, model.Query{
			Objects: []model.ObjectID{obj.ID}, Cost: 100 * cost.MB,
			Tolerance: model.NoTolerance, Time: 3 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Source == "cache" && d.mw.Ledger().UpdateShip >= cost.MB
	})
}

func TestEndToEndReplicaPolicy(t *testing.T) {
	d := startDeployment(t, core.NewReplica())
	cl, err := client.Dial(d.mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Replica preloads everything (uncharged) and answers locally.
	res, err := cl.Query(ctx, model.Query{
		Objects:   []model.ObjectID{1, 2, 3},
		Cost:      50 * cost.MB,
		Tolerance: model.NoTolerance,
		Time:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "cache" {
		t.Errorf("replica must answer at cache, got %q", res.Source)
	}
	if d.mw.Ledger().Total() != 0 {
		t.Errorf("replica preload must be free, ledger %v", d.mw.Ledger().Total())
	}
	// Every pipeline update is pushed to the replica.
	d.repo.ApplyUpdate(model.Update{ID: 1, Object: 1, Cost: 3 * cost.MB, Time: 2 * time.Second})
	waitFor(t, func() bool { return d.mw.Ledger().UpdateShip == 3*cost.MB })
}

func TestStatsEndpoint(t *testing.T) {
	d := startDeployment(t, core.NewVCover(core.DefaultVCoverConfig()))
	cl, err := client.Dial(d.mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(ctx, model.Query{
		Objects: []model.ObjectID{1}, Cost: cost.MB,
		Tolerance: model.NoTolerance, Time: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Policy != "VCover" || stats.Queries != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestConcurrentClients(t *testing.T) {
	d := startDeployment(t, core.NewVCover(core.DefaultVCoverConfig()))
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			cl, err := client.Dial(d.mw.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for j := 0; j < 20; j++ {
				_, err := cl.Query(ctx, model.Query{
					Objects:   []model.ObjectID{model.ObjectID(j%16 + 1)},
					Cost:      cost.MB,
					Tolerance: model.AnyStaleness,
					Time:      time.Duration(i*100+j) * time.Second,
				})
				if err != nil {
					errs <- fmt.Errorf("client %d query %d: %w", i, j, err)
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	stats := d.mw.Stats()
	if stats.Queries != n*20 {
		t.Errorf("queries = %d, want %d", stats.Queries, n*20)
	}
}

// recordingPolicy counts the update notices that reach the policy.
type recordingPolicy struct {
	core.Policy
	updates atomic.Int64
}

func (p *recordingPolicy) OnUpdate(u *model.Update) (core.Decision, error) {
	p.updates.Add(1)
	return p.Policy.OnUpdate(u)
}

// TestUpdateRightAfterNewIsDelivered applies an update on the line
// after cache.New returns — no sleep, no poll on Subscribers. The
// repository registers an invalidation subscriber before it acks the
// subscription and New waits for that ack, so the notice must be
// queued to this cache (not broadcast to nobody) and reach its policy.
func TestUpdateRightAfterNewIsDelivered(t *testing.T) {
	policy := &recordingPolicy{Policy: core.NewVCover(core.DefaultVCoverConfig())}
	d := startRepo(t)
	newCache(t, d, policy)
	d.repo.ApplyUpdate(model.Update{ID: 1, Object: d.survey.Objects()[0].ID, Cost: cost.MB, Time: time.Second})
	if got := d.repo.Subscribers(); got != 1 {
		t.Fatalf("subscribers = %d right after New, want 1", got)
	}
	waitFor(t, func() bool { return policy.updates.Load() == 1 })
	if got := d.repo.DroppedInvalidations(); got != 0 {
		t.Errorf("repository dropped %d notices", got)
	}
}

func TestServerRejectsUnknownRole(t *testing.T) {
	d := startDeployment(t, core.NewVCover(core.DefaultVCoverConfig()))
	_, err := netproto.DialConn(d.repo.Addr(), netproto.Hello{Role: "intruder"}, netproto.SessionConfig{DialTimeout: 2 * time.Second})
	// The server names the problem and closes the connection.
	var remote *netproto.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Message, "intruder") {
		t.Errorf("dial with an unknown role: err = %v, want the server's refusal naming the role", err)
	}
}

// TestPipelineOverNetwork: an update the pipeline applies at the
// repository crosses the network to a replica — its notice on the
// invalidation stream, then the shipped update.
func TestPipelineOverNetwork(t *testing.T) {
	d := startDeployment(t, core.NewReplica())
	d.repo.ApplyUpdate(model.Update{ID: 42, Object: 2, Cost: 7 * cost.MB, Time: time.Second})
	waitFor(t, func() bool { return d.mw.Ledger().UpdateShip == 7*cost.MB })
}

// TestConcurrentMixedStress hammers one cache with 32 goroutines
// issuing a mix of queries and stats requests through shared and
// private clients; every reply must be well-formed and the query
// counter exact. Run with -race to exercise the lock-split paths.
func TestConcurrentMixedStress(t *testing.T) {
	d := startDeployment(t, core.NewVCover(core.DefaultVCoverConfig()))
	shared, err := client.Dial(d.mw.Addr(), client.WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	const goroutines = 32
	const perG = 15
	var (
		wg          sync.WaitGroup
		wantQueries int64
	)
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		cl := shared
		if i%2 == 0 { // half the goroutines get a private connection
			own, err := client.Dial(d.mw.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer own.Close()
			cl = own
		}
		wantQueries += perG
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				if j%5 == 4 { // sprinkle stats requests between queries
					if _, err := cl.Stats(ctx); err != nil {
						errs <- fmt.Errorf("goroutine %d stats %d: %w", i, j, err)
						return
					}
				}
				res, err := cl.Query(ctx, model.Query{
					Objects:   []model.ObjectID{model.ObjectID((i+j)%16 + 1)},
					Cost:      cost.MB,
					Tolerance: model.AnyStaleness,
					Time:      time.Duration(i*1000+j) * time.Second,
				})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d query %d: %w", i, j, err)
					return
				}
				if res.Source != "cache" && res.Source != "repository" {
					errs <- fmt.Errorf("goroutine %d query %d: bad source %q", i, j, res.Source)
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := d.mw.Stats()
	if stats.Queries != wantQueries {
		t.Errorf("queries = %d, want %d", stats.Queries, wantQueries)
	}
	if shipped := stats.Metric("delta_queries_shipped_total"); float64(stats.AtCache)+shipped != float64(stats.Queries) {
		t.Errorf("atCache(%d) + shipped(%v) != queries(%d)",
			stats.AtCache, shipped, stats.Queries)
	}
}

// TestQueryBatchThroughCache runs a batch of concurrent queries, one
// goroutine each, through one client against a real deployment.
func TestQueryBatchThroughCache(t *testing.T) {
	d := startDeployment(t, core.NewVCover(core.DefaultVCoverConfig()))
	cl, err := client.Dial(d.mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	results := make([]*client.Result, 10)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = cl.Query(ctx, model.Query{
				Objects:   []model.ObjectID{model.ObjectID(i%16 + 1)},
				Cost:      cost.MB,
				Tolerance: model.AnyStaleness,
				Time:      time.Duration(i) * time.Second,
			})
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil || res.Logical != int64(cost.MB) {
			t.Fatalf("query %d = %+v, %v", i, res, errs[i])
		}
	}
}

// TestAddrBeforeStart ensures Addr is safe (empty, not a panic) before
// Start on both nodes.
func TestAddrBeforeStart(t *testing.T) {
	d := startDeployment(t, core.NewVCover(core.DefaultVCoverConfig()))
	mw, err := cache.New(cache.Config{
		RepoAddr: d.repo.Addr(),
		Policy:   core.NewVCover(core.DefaultVCoverConfig()),
		Objects:  d.survey.Objects(),
		Capacity: 8 * cost.GB,
		Scale:    netproto.DefaultScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	if got := mw.Addr(); got != "" {
		t.Errorf("Addr before Start = %q, want empty", got)
	}
}

// waitFor polls a condition with a deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}

// TestSingleCacheAdoptsBirths covers live growth on the unsharded
// deployment: a birth published through the cache is queryable the
// moment the publish acks, and a birth published straight to the
// repository reaches the cache through the invalidation stream.
func TestSingleCacheAdoptsBirths(t *testing.T) {
	d := startDeployment(t, core.NewVCover(core.DefaultVCoverConfig()))
	cl, err := client.Dial(d.mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	next := d.survey.NextID()
	publishViaCache := model.Birth{
		Object: model.Object{ID: next, Size: 200 * cost.MB},
		RA:     33, Dec: 12, Time: time.Second,
	}
	accepted, err := cl.AddObjects(ctx, []model.Birth{publishViaCache})
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 1 {
		t.Fatalf("accepted = %d, want 1", accepted)
	}
	// Immediately queryable: the publish path adopts before replying.
	res, err := cl.Query(ctx, model.Query{
		Objects: []model.ObjectID{next}, Cost: cost.MB,
		Tolerance: model.AnyStaleness, Time: time.Minute,
	})
	if err != nil {
		t.Fatalf("born object not queryable after publish ack: %v", err)
	}
	if res.Source != "repository" {
		t.Errorf("cold newborn should ship, got %q", res.Source)
	}
	// Republishing is idempotent end to end.
	if accepted, err := cl.AddObjects(ctx, []model.Birth{publishViaCache}); err != nil || accepted != 0 {
		t.Fatalf("republish accepted %d, err %v", accepted, err)
	}

	// A birth ingested directly at the repository reaches the cache
	// via the announcement stream within one round trip.
	direct := model.Birth{
		Object: model.Object{ID: next + 1, Size: 120 * cost.MB},
		RA:     210, Dec: -5, Time: 2 * time.Second,
	}
	if _, err := d.repo.AddObjects([]model.Birth{direct}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cl.Query(ctx, model.Query{
			Objects: []model.ObjectID{next + 1}, Cost: cost.MB,
			Tolerance: model.AnyStaleness, Time: time.Minute,
		}); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("announced birth never became queryable: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if born := st.Metric("delta_objects_born_total"); born != 2 {
		t.Errorf("cache delta_objects_born_total = %v, want 2", born)
	}
}

// TestReplicaLoadsBirths pins the Grower contract for the push-based
// mirror: a Replica cache loads every newborn so queries over it stay
// local.
func TestReplicaLoadsBirths(t *testing.T) {
	d := startDeployment(t, core.NewReplica())
	cl, err := client.Dial(d.mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	next := d.survey.NextID()
	if _, err := cl.AddObjects(ctx, []model.Birth{{
		Object: model.Object{ID: next, Size: 300 * cost.MB},
		RA:     75, Dec: 42, Time: time.Second,
	}}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(ctx, model.Query{
		Objects: []model.ObjectID{next}, Cost: cost.MB,
		Tolerance: model.NoTolerance, Time: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "cache" {
		t.Errorf("replica should answer the newborn locally, got %q", res.Source)
	}
}
