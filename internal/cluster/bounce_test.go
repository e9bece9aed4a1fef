package cluster_test

import (
	"bytes"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/obs"
	"github.com/deltacache/delta/internal/server"
)

// counter reads one counter family's value from a node's registry.
func counter(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	families, err := obs.ParseExposition(&b)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := families[name]
	if !ok {
		t.Fatalf("no %s family", name)
	}
	return f.Samples[name]
}

// TestRepositoryBounceResubscribes bounces the repository under a
// 2-shard K=1 cluster with the router's result cache on. The repository
// closes and comes back on its address and DataDir, and before it
// listens it applies an update to an object resident at shard 0: an
// update no subscriber hears. Every tier must take exactly one gap, the
// object's next tolerance-0 query must not be answered from its
// pre-bounce resident, and both the shards' at-cache answers and the
// router's result-cache hits must come back, with no decision
// violation. Counts, not timings: every wait polls a counter.
func TestRepositoryBounceResubscribes(t *testing.T) {
	survey := testSurvey(t)
	dir := t.TempDir()
	repo, err := server.New(server.Config{Survey: survey, DataDir: dir, Scale: netproto.DefaultScale()})
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
		Shards:   2,
		Scale:    netproto.DefaultScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })

	rc, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	shards := make([]*client.Client, 2)
	objs := make([]model.Object, 2) // one owned object per shard
	for s := range shards {
		if shards[s], err = client.Dial(lc.Shards[s].Addr()); err != nil {
			t.Fatal(err)
		}
		defer shards[s].Close()
		owned := lc.Ownership.ShardObjects(s)
		if len(owned) < 2 {
			t.Fatalf("shard %d owns %d objects, want 2", s, len(owned))
		}
		if objs[s], err = survey.Object(owned[0]); err != nil {
			t.Fatal(err)
		}
	}
	// The router's query names neither warmed object, so it never counts
	// as a query on the updated one.
	spanning := model.Query{
		Objects:   []model.ObjectID{lc.Ownership.ShardObjects(0)[1], lc.Ownership.ShardObjects(1)[1]},
		Cost:      2 * cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	}

	// warm queries shard s directly: a query whose cost covers the load
	// loads its object, and the cheap one after it reports where it was
	// answered.
	clock := time.Second
	warm := func(s int) (source string) {
		for _, c := range []cost.Bytes{objs[s].Size, cost.MB} {
			clock += time.Second
			res, err := shards[s].Query(ctx, model.Query{
				Objects: []model.ObjectID{objs[s].ID}, Cost: c, Tolerance: model.NoTolerance, Time: clock,
			})
			if err != nil {
				return "error"
			}
			source = res.Source
		}
		return source
	}
	for s := range shards {
		if src := warm(s); src != "cache" {
			t.Fatalf("warm-up on shard %d answered from %q, want cache", s, src)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := rc.Query(ctx, spanning); err != nil {
			t.Fatal(err)
		}
	}
	if got := lc.Router.ResultCacheHits(); got != 1 {
		t.Fatalf("warm-up recorded %d result-cache hits, want 1", got)
	}

	addr := repo.Addr()
	repo.Close()
	clock += time.Second
	restartRepository(t, survey, addr, dir, model.Update{ID: 1, Object: objs[0].ID, Cost: cost.MB, Time: clock})
	nodes := map[string]*obs.Registry{"shard 0": lc.Shards[0].Reg, "shard 1": lc.Shards[1].Reg, "router": lc.Router.Reg}
	for name, reg := range nodes {
		waitFor(t, name+"'s gap", func() bool { return counter(t, reg, "delta_invalidation_gaps_total") >= 1 })
	}
	// A scatter the router admits means both shards answered again.
	waitFor(t, "result-cache hits after the bounce", func() bool {
		_, _ = rc.Query(ctx, spanning)
		return lc.Router.ResultCacheHits() > 1
	})

	loads := lc.Shards[0].Ledger().ObjectLoad
	clock += time.Second
	res, err := shards[0].Query(ctx, model.Query{
		Objects: []model.ObjectID{objs[0].ID}, Cost: cost.MB, Tolerance: model.NoTolerance, Time: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source == "cache" && lc.Shards[0].Ledger().ObjectLoad == loads {
		t.Error("the first tolerance-0 query on the updated object answered from its pre-bounce resident")
	}
	for s, sh := range lc.Shards {
		atCache := sh.Stats().AtCache
		waitFor(t, "at-cache answers after the bounce", func() bool { return warm(s) == "cache" })
		if got := sh.Stats().AtCache; got <= atCache {
			t.Errorf("shard %d: at-cache answers %d -> %d after the bounce", s, atCache, got)
		}
	}
	for name, reg := range nodes {
		if got := counter(t, reg, "delta_invalidation_gaps_total"); got != 1 {
			t.Errorf("%s: %v invalidation gaps, want 1", name, got)
		}
	}
	for s, sh := range lc.Shards {
		if got := counter(t, sh.Reg, "delta_decision_violations_total"); got != 0 {
			t.Errorf("shard %d: %v decision violations", s, got)
		}
	}
}
