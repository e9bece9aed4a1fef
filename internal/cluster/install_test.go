package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/persist"
	"github.com/deltacache/delta/internal/server"
)

// installSurvey builds a 16-object survey and a started repository over
// it.
func installSurvey(t *testing.T, seed int64) (*catalog.Survey, *server.Repository) {
	t.Helper()
	scfg := catalog.DefaultConfig()
	scfg.Seed = seed
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
	t.Cleanup(func() { repo.Close() })
	return survey, repo
}

// TestNewRouterRefusesAnotherSurvey: a router whose ownership was built
// from another survey than its shard's (the same object IDs, another
// seed) fails at startup, on the reshard that installs the ownership,
// with an error naming the object and both descriptions of it.
func TestNewRouterRefusesAnotherSurvey(t *testing.T) {
	survey, repo := installSurvey(t, 2)
	scfg := catalog.DefaultConfig()
	scfg.Seed = 3
	scfg.NumObjects = 16
	other, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	lc := &LocalCluster{cfg: LocalConfig{RepoAddr: repo.Addr()}}
	shardOwn, err := NewOwnership(survey.Objects(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := lc.spawnShard(0, shardOwn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shard.Close() })
	routerOwn, err := NewOwnership(other.Objects(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Config{Shards: []string{shard.Addr()}, Ownership: routerOwn})
	if err == nil {
		r.Close()
		t.Fatal("NewRouter over a shard built from another survey succeeded")
	}
	if !strings.Contains(err.Error(), "reshard metadata for object") {
		t.Errorf("NewRouter error = %q, want the reshard-metadata disagreement", err)
	}
}

// TestFreshRouterOverRecoveredShards: shards restarted from disk after
// two resizes (their old router left them at epoch 2) take a fresh
// router's ownership, serve every object through it, and follow its
// first resize.
func TestFreshRouterOverRecoveredShards(t *testing.T) {
	survey, repo := installSurvey(t, 2)
	dir := t.TempDir()
	cfg := LocalConfig{
		RepoAddr:     repo.Addr(),
		Objects:      survey.Objects(),
		Shards:       2,
		Scale:        netproto.PayloadScale{},
		ShardDataDir: func(s int) string { return filepath.Join(dir, fmt.Sprint(s)) },
	}
	lc, err := SpawnLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range []int{3, 2} {
		if _, err := lc.Resize(ctx, n, false); err != nil {
			lc.Close()
			t.Fatal(err)
		}
	}
	if epoch := lc.Router.RebalanceStatus().Epoch; epoch < 2 {
		t.Fatalf("the old router left its shards at epoch %d, want at least 2", epoch)
	}
	if err := lc.Close(); err != nil {
		t.Fatal(err)
	}
	for s := range 2 {
		store, err := persist.Open(persist.Options{Dir: cfg.ShardDataDir(s)})
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Recover()
		store.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st == nil {
			t.Fatalf("shard %d persisted nothing to recover from", s)
		}
	}

	fresh := &LocalCluster{cfg: cfg}
	defer fresh.Close()
	own, err := NewOwnership(survey.Objects(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for s := range 2 {
		mw, err := fresh.spawnShard(s, own)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Shards = append(fresh.Shards, mw)
		addrs = append(addrs, mw.Addr())
	}
	if fresh.Router, err = NewRouter(Config{Shards: addrs, Ownership: own, RepoAddr: repo.Addr()}); err != nil {
		t.Fatalf("fresh router over recovered shards: %v", err)
	}
	if err := fresh.Router.Start(); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(fresh.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	serveAll := func(stage string) {
		t.Helper()
		for _, o := range survey.Objects() {
			res, err := cl.Query(ctx, model.Query{
				Objects: []model.ObjectID{o.ID}, Cost: cost.MB,
				Tolerance: model.AnyStaleness, Time: time.Second,
			})
			if err != nil {
				t.Fatalf("%s: object %d: %v", stage, o.ID, err)
			}
			if res.Degraded {
				t.Errorf("%s: object %d answered degraded", stage, o.ID)
			}
		}
	}
	serveAll("fresh router")
	if _, err := fresh.Resize(ctx, 3, false); err != nil {
		t.Fatalf("first resize under the fresh router: %v", err)
	}
	serveAll("after the resize")
}

// TestRestartedRouterOverLiveShards: a router that resized its shards
// (leaving them at epoch 1) and exited is replaced by a fresh router
// over the same live shards. Its epoch-0 install applies over the epoch
// the old router left, and it serves every object and resizes.
func TestRestartedRouterOverLiveShards(t *testing.T) {
	survey, repo := installSurvey(t, 2)
	lc, err := SpawnLocal(LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   2,
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	ctx := context.Background()
	if _, err := lc.Resize(ctx, 3, false); err != nil {
		t.Fatal(err)
	}
	if err := lc.Router.Close(); err != nil {
		t.Fatal(err)
	}
	own, err := NewOwnership(survey.Objects(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, shard := range lc.Shards {
		addrs = append(addrs, shard.Addr())
	}
	if lc.Router, err = NewRouter(Config{Shards: addrs, Ownership: own, RepoAddr: repo.Addr()}); err != nil {
		t.Fatalf("restarted router over live shards: %v", err)
	}
	if err := lc.Router.Start(); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	serveAll := func(stage string) {
		t.Helper()
		for _, o := range survey.Objects() {
			res, err := cl.Query(ctx, model.Query{
				Objects: []model.ObjectID{o.ID}, Cost: cost.MB,
				Tolerance: model.AnyStaleness, Time: time.Second,
			})
			if err != nil {
				t.Fatalf("%s: object %d: %v", stage, o.ID, err)
			}
			if res.Degraded {
				t.Errorf("%s: object %d answered degraded", stage, o.ID)
			}
		}
	}
	serveAll("restarted router")
	if _, err := lc.Resize(ctx, 2, false); err != nil {
		t.Fatalf("first resize under the restarted router: %v", err)
	}
	serveAll("after the resize")
}

// TestFreshShardJoinsGrownCluster: a shard started from the base survey
// alone, which has seen none of the cluster's births, joins a grown
// cluster through a resize. The widen reshard carries the metadata of
// the births it gains, and it serves them.
func TestFreshShardJoinsGrownCluster(t *testing.T) {
	survey, repo := installSurvey(t, 2)
	mirror, err := catalog.NewSurvey(survey.Config())
	if err != nil {
		t.Fatal(err)
	}
	// The repository grows survey as births publish; keep its base.
	base, err := NewOwnership(survey.Objects(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := SpawnLocal(LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  base.Universe(),
		Shards:   1,
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	ctx := context.Background()
	births, err := mirror.GrowObjects(rand.New(rand.NewSource(3)), 8, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.AddObjects(ctx, births); err != nil {
		t.Fatal(err)
	}
	fresh, err := lc.spawnShard(1, base)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := lc.Router.Resize(ctx, ResizeSpec{Shards: []string{lc.Shards[0].Addr(), fresh.Addr()}}); err != nil {
		t.Fatalf("resize onto a shard that has seen no births: %v", err)
	}
	own := lc.Router.Ownership()
	gained := 0
	for _, b := range births {
		if s, _ := own.Owner(b.Object.ID); s == 1 {
			gained++
		}
		res, err := cl.Query(ctx, model.Query{
			Objects: []model.ObjectID{b.Object.ID}, Cost: cost.MB,
			Tolerance: model.AnyStaleness, Time: time.Second,
		})
		if err != nil {
			t.Fatalf("born object %d: %v", b.Object.ID, err)
		}
		if res.Degraded {
			t.Errorf("born object %d answered degraded", b.Object.ID)
		}
	}
	if gained == 0 {
		t.Fatal("the fresh shard gained no birth, so the resize tested nothing")
	}
}

// TestInstallPreloadsReplicaShards: a core.Preloader policy's shard ends
// the router's install reshard in the state a standalone cache's
// constructor leaves it in — its Preload set resident, loaded from the
// repository, charged as the policy asks (a Replica, not at all).
func TestInstallPreloadsReplicaShards(t *testing.T) {
	survey, repo := installSurvey(t, 2)
	lc, err := SpawnLocal(LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   2,
		Replicas: 2,
		Policy:   func(int) core.Policy { return core.NewReplica() },
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for s, shard := range lc.Shards {
		st := shard.Stats()
		if want := lc.Ownership.ShardObjects(s); !slices.Equal(st.Cached, want) {
			t.Errorf("shard %d holds %v after the install, want its owned %v", s, st.Cached, want)
		}
		if st.Ledger.ObjectLoad != 0 {
			t.Errorf("shard %d charged %v for a Replica preload", s, st.Ledger.ObjectLoad)
		}
	}
	// K is the router's to know: no shard is told it.
	if k := lc.Router.clusterStats(t.Context()).Metric("delta_router_replicas"); k != 2 {
		t.Errorf("the router reports K=%v, want 2", k)
	}
	if repo.Ledger().ObjectLoads == 0 {
		t.Error("the install preloaded nothing from the repository")
	}
}
