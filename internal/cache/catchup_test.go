package cache_test

import (
	"context"
	"math/rand"
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

// TestResumeAdoptsBirthsOfTheGap cuts the invalidation streams of a
// standalone cache and of a router and keeps both away from the
// repository while a birth is published, so neither hears its
// announcement. After each resumes, both must have adopted the newborn
// and answer a query on it: a resume re-reads the repository's
// universe and adopts the births it lacks. (A standalone cache that
// never adopted it would still answer, by shipping the query.)
func TestResumeAdoptsBirthsOfTheGap(t *testing.T) {
	cfg := catalog.DefaultConfig()
	cfg.NumObjects = 16
	survey, err := catalog.NewSurvey(cfg)
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
	proxy := startCutProxy(t, repo.Addr())
	defer proxy.ln.Close()
	proxied := proxy.ln.Addr().String()

	start := func(cfg cache.Config) *cache.Middleware {
		t.Helper()
		cfg.Objects, cfg.Capacity, cfg.Scale = survey.Objects(), survey.TotalSize(), netproto.PayloadScale{}
		mw, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := mw.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mw.Close() })
		return mw
	}
	standalone := start(cache.Config{RepoAddr: proxied})
	shard := start(cache.Config{RepoAddr: repo.Addr(), Shard: true, ReshardCapacity: cache.ReplicatedCapacity})
	own, err := core.NewOwnership(survey.Objects(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(cluster.Config{Shards: []string{shard.Addr()}, Ownership: own, RepoAddr: proxied})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Start(); err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	proxy.hold()
	proxy.cut()
	mirror, err := catalog.NewSurvey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	births, err := mirror.GrowObjects(rand.New(rand.NewSource(1)), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := repo.AddObjects(births); err != nil || n != 1 {
		t.Fatalf("publish: %d, %v", n, err)
	}
	proxy.release()

	q := model.Query{Objects: []model.ObjectID{births[0].Object.ID}, Cost: cost.MB, Tolerance: model.AnyStaleness}
	for _, node := range []struct {
		name    string
		addr    string
		adopted func() float64
	}{
		{"standalone cache", standalone.Addr(), func() float64 { return standalone.Stats().Metric("delta_objects_born_total") }},
		{"router", router.Addr(), func() float64 { return float64(router.Births()) }},
	} {
		for deadline := time.Now().Add(5 * time.Second); node.adopted() != 1; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s adopted %v births after its resume, want 1", node.name, node.adopted())
			}
		}
		cl, err := client.Dial(node.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Query(context.Background(), q); err != nil {
			t.Errorf("%s: query the newborn: %v", node.name, err)
		}
	}
}
