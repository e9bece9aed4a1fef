package cluster_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

// growthSurveyConfig is the shared shape of the growth tests: equal
// 1 GB objects so ownership cuts balance and every query is cheap to
// validate.
func growthSurveyConfig(n int) catalog.Config {
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = n
	scfg.TotalSize = cost.Bytes(n) * cost.GB
	scfg.MinObjectSize = cost.GB
	scfg.MaxObjectSize = cost.GB
	return scfg
}

// TestGrowthSoakWithResizeOverlap is the deterministic growth soak of
// the issue: a cluster under 16 concurrent clients whose universe
// doubles mid-run (32→64 objects, published in bursts) while a live
// 4→8 resize overlaps one of the growth bursts. Every query must
// succeed — zero failed queries — and every born object must be
// queryable the moment its publication acked; the run finishes on an
// 8-shard cluster whose routing spans the doubled universe.
func TestGrowthSoakWithResizeOverlap(t *testing.T) {
	const (
		nClients  = 16
		nBase     = 32
		nBirths   = 32 // universe doubles
		burstSize = 4
	)
	repoSurvey, err := catalog.NewSurvey(growthSurveyConfig(nBase))
	if err != nil {
		t.Fatal(err)
	}
	// The grower's survey mirror: same config, so the births it
	// fabricates carry exactly the IDs the repository expects next.
	mirror, err := catalog.NewSurvey(growthSurveyConfig(nBase))
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
		Shards:   4,
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	// known is the object set clients may query: base objects plus
	// every birth whose publication has acked (the ack means the
	// router already routes it — the one-notification guarantee).
	var (
		knownMu sync.RWMutex
		known   []model.ObjectID
	)
	for _, o := range repoSurvey.Objects() {
		known = append(known, o.ID)
	}
	pickKnown := func(rng *rand.Rand) []model.ObjectID {
		knownMu.RLock()
		defer knownMu.RUnlock()
		// Mostly single-object queries with some multi-object scatters.
		ids := []model.ObjectID{known[rng.Intn(len(known))]}
		if rng.Intn(4) == 0 {
			extra := known[rng.Intn(len(known))]
			if extra != ids[0] {
				ids = append(ids, extra)
			}
		}
		return ids
	}

	var (
		stop   atomic.Bool
		served atomic.Int64
		wg     sync.WaitGroup
	)
	for c := 0; c < nClients; c++ {
		cl, err := client.Dial(lc.Router.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := 0; !stop.Load(); i++ {
				res, err := cl.Query(ctx, model.Query{
					Objects:   pickKnown(rng),
					Cost:      cost.KB,
					Tolerance: model.AnyStaleness,
					Time:      time.Duration(i) * time.Millisecond,
				})
				if err != nil {
					t.Errorf("client %d query %d failed: %v", c, i, err)
					return
				}
				if res.Degraded {
					t.Errorf("client %d query %d degraded on a healthy cluster", c, i)
					return
				}
				served.Add(1)
			}
		}(c, cl)
	}

	// Grower: publish the births in bursts; the resize fires midway
	// and overlaps the remaining bursts.
	growCl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer growCl.Close()
	growRng := rand.New(rand.NewSource(42))
	resizeStarted := make(chan struct{})
	resizeDone := make(chan error, 1)
	var bornIDs []model.ObjectID
	for burst := 0; burst < nBirths/burstSize; burst++ {
		if burst == nBirths/burstSize/2 {
			// Kick off the live 4→8 resize; the following bursts land
			// while it is widening/migrating/flipping.
			go func() {
				close(resizeStarted)
				_, err := lc.Resize(ctx, 8, false)
				resizeDone <- err
			}()
			<-resizeStarted
		}
		births, err := mirror.GrowObjects(growRng, burstSize, time.Duration(burst)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := growCl.AddObjects(ctx, births); err != nil {
			t.Fatalf("burst %d: %v", burst, err)
		}
		// Acked births are queryable now; hand them to the clients.
		knownMu.Lock()
		for _, b := range births {
			known = append(known, b.Object.ID)
			bornIDs = append(bornIDs, b.Object.ID)
		}
		knownMu.Unlock()
		time.Sleep(5 * time.Millisecond) // let the load mix in mid-growth queries
	}
	if err := <-resizeDone; err != nil {
		t.Fatalf("resize during growth: %v", err)
	}

	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no queries served during the soak")
	}

	// The final topology spans the doubled universe on 8 shards, and
	// every born object answers a direct query.
	own := lc.Router.Ownership()
	if got := len(own.Universe()); got != nBase+nBirths {
		t.Errorf("routing universe = %d objects, want %d", got, nBase+nBirths)
	}
	if own.Shards() != 8 {
		t.Errorf("final shard count = %d, want 8", own.Shards())
	}
	if got := lc.Router.Births(); got != nBirths {
		t.Errorf("router adopted %d births, want %d", got, nBirths)
	}
	verify, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Close()
	for _, id := range bornIDs {
		res, err := verify.Query(ctx, model.Query{
			Objects: []model.ObjectID{id}, Cost: cost.KB,
			Tolerance: model.AnyStaleness, Time: time.Minute,
		})
		if err != nil {
			t.Errorf("born object %d not queryable after soak: %v", id, err)
			continue
		}
		if res.Degraded {
			t.Errorf("born object %d answered degraded", id)
		}
	}
	cs, err := verify.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if born := cs.Metric("delta_objects_born_total"); born != nBirths {
		t.Errorf("shards admitted %v births total, want %d", born, nBirths)
	}
}

// TestBirthAnnouncementReachesRouterAndCache covers the asynchronous
// adoption path: births published straight to the repository (the
// pipeline role — no router involved) must become queryable through
// the cluster within one invalidation round trip, with adoption driven
// purely by the announcement stream.
func TestBirthAnnouncementReachesRouterAndCache(t *testing.T) {
	repoSurvey, err := catalog.NewSurvey(growthSurveyConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := catalog.NewSurvey(growthSurveyConfig(16))
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
		Shards:   3,
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	// Publish through the pipeline role: a one-way stream to the
	// repository, exactly how the survey's data pipeline would.
	pipe, err := netproto.DialSession(repo.Addr(), "client", netproto.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	births, err := mirror.GrowObjects(rand.New(rand.NewSource(7)), 4, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := pipe.RoundTrip(ctx, netproto.Frame{
		Type: netproto.MsgObjectBirth,
		Body: netproto.ObjectBirthMsg{Births: births},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := reply.Body.(netproto.ObjectBirthMsg); !ok || ack.Accepted != len(births) {
		t.Fatalf("repository accepted %v of %d births", reply.Body, len(births))
	}

	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for _, b := range births {
		for {
			res, err := cl.Query(ctx, model.Query{
				Objects: []model.ObjectID{b.Object.ID}, Cost: cost.KB,
				Tolerance: model.AnyStaleness, Time: time.Minute,
			})
			if err == nil && !res.Degraded {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("born object %d still not queryable: %v", b.Object.ID, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if got := lc.Router.Births(); got != int64(len(births)) {
		t.Errorf("router adopted %d births, want %d", got, len(births))
	}
}

// TestPublishPathUsesCanonicalMetadata is the regression pin for the
// publish-vs-announcement divergence: a publisher may legally send
// births with a zero trixel (the catalog fills it from the sky
// position), and the router must adopt the repository's canonical
// copy — otherwise HTM placement on the publish path would diverge
// from every announcement-stream adopter.
func TestPublishPathUsesCanonicalMetadata(t *testing.T) {
	repoSurvey, err := catalog.NewSurvey(growthSurveyConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := catalog.NewSurvey(growthSurveyConfig(16))
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
		Shards:   4,
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	births, err := mirror.GrowObjects(rand.New(rand.NewSource(3)), 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	canonical := make(map[model.ObjectID]uint64, len(births))
	published := make([]model.Birth, len(births))
	for i, b := range births {
		canonical[b.Object.ID] = b.Object.Trixel
		published[i] = b
		published[i].Object.Trixel = 0 // what a lazy publisher would send
	}
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.AddObjects(ctx, published); err != nil {
		t.Fatal(err)
	}
	adopted := make(map[model.ObjectID]model.Object)
	for _, o := range lc.Router.Ownership().Universe() {
		adopted[o.ID] = o
	}
	for id, trixel := range canonical {
		got, ok := adopted[id]
		if !ok {
			t.Fatalf("born object %d missing from routing universe", id)
		}
		if got.Trixel != trixel {
			t.Errorf("router adopted object %d with trixel %d, canonical is %d",
				id, got.Trixel, trixel)
		}
		if _, err := cl.Query(ctx, model.Query{
			Objects: []model.ObjectID{id}, Cost: cost.KB,
			Tolerance: model.AnyStaleness, Time: time.Minute,
		}); err != nil {
			t.Errorf("born object %d not queryable: %v", id, err)
		}
	}
}

// TestShardRefusesDirectBirths pins that placement of a newborn is the
// router's: a birth published straight to a shard is refused (before
// the fix the shard forwarded it, then claimed and answered for an
// object the router may place elsewhere), and the same birth published
// through the router is queryable with its exact ν(q).
func TestShardRefusesDirectBirths(t *testing.T) {
	repoSurvey, err := catalog.NewSurvey(growthSurveyConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := catalog.NewSurvey(growthSurveyConfig(16))
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
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	births, err := mirror.GrowObjects(rand.New(rand.NewSource(11)), 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	id := births[0].Object.ID
	q := model.Query{Objects: []model.ObjectID{id}, Cost: 3 * cost.MB, Tolerance: model.AnyStaleness, Time: time.Minute}

	for s, shard := range lc.Shards {
		cl, err := client.Dial(shard.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.AddObjects(ctx, births); err == nil {
			t.Errorf("shard %d accepted a birth published to it directly", s)
		}
		sess, err := netproto.DialSession(shard.Addr(), "client", netproto.SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.RoundTrip(ctx, netproto.Frame{
			Type: netproto.MsgShardQuery, Body: netproto.ShardQueryMsg{Query: q, Shard: s, Fragments: 1},
		}); err == nil {
			t.Errorf("shard %d answered a fragment for newborn %d it was never granted", s, id)
		}
		sess.Close()
		cl.Close()
	}

	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.AddObjects(ctx, births); err != nil {
		t.Fatalf("publish through the router: %v", err)
	}
	res, err := cl.Query(ctx, q)
	if err != nil {
		t.Fatalf("newborn %d not queryable through the router: %v", id, err)
	}
	if res.Degraded || res.Logical != int64(q.Cost) {
		t.Errorf("newborn answer degraded=%v ν(q)=%d, want exact %d", res.Degraded, res.Logical, q.Cost)
	}
}
