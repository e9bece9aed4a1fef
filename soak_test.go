package delta_test

import (
	"context"
	"os"
	"runtime"
	"slices"
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
	"github.com/deltacache/delta/internal/workload"
)

// soakShape parameterizes TestMillionObjectSoak: the same harness runs
// a scaled-down tier-1 variant on every CI run and the million-object
// acceptance shape behind DELTA_SOAK=1 (the soak CI lane on main).
type soakShape struct {
	objects  int // uniform HTM mesh size; must be 8·4^level
	conns    int // concurrent client connections
	queries  int
	updates  int
	shards   int
	heapCeil uint64 // post-run Go heap bound (bytes)
}

// TestMillionObjectSoak drives the flash-crowd scenario through a live
// loopback cluster — repository, HTM-sharded cache shards, router, and
// real client connections — and requires zero failed or degraded
// queries plus a bounded post-run heap. The default shape is a
// level-6 uniform mesh (32,768 objects, 64 connections) so the soak
// runs in tier-1 time under -race; DELTA_SOAK=1 switches to the
// acceptance shape: a level-9 mesh of 2,097,152 catalog objects with
// 1,024 concurrent connections, the scale the dense ownership and
// cache index representations exist for.
func TestMillionObjectSoak(t *testing.T) {
	full := os.Getenv("DELTA_SOAK") == "1"
	if testing.Short() && !full {
		t.Skip("skipping scaled soak in -short mode (set DELTA_SOAK=1 for the full shape)")
	}
	shape := soakShape{
		objects: 32768, conns: 64, queries: 2048, updates: 512,
		shards: 2, heapCeil: 1 << 30,
	}
	if full {
		shape = soakShape{
			objects: 2097152, conns: 1024, queries: 16384, updates: 4096,
			shards: 2, heapCeil: 6 << 30,
		}
	}
	runScenarioSoak(t, shape)
}

func runScenarioSoak(t *testing.T, shape soakShape) {
	t.Helper()
	scfg := catalog.Config{
		Seed:          11,
		NumObjects:    shape.objects,
		TotalSize:     cost.Bytes(shape.objects) * cost.MB,
		MinObjectSize: 256 * cost.KB,
		MaxObjectSize: 4 * cost.MB,
		Blobs:         12,
		Uniform:       true,
	}
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := workload.Lookup("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	events, err := sc.Events(survey, workload.Options{
		Seed: 11, Queries: shape.queries, Updates: shape.updates,
	})
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
		Shards:   shape.shards,
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	ctx := context.Background()
	clients := make([]*client.Client, shape.conns)
	for i := range clients {
		cl, err := client.Dial(lc.Router.Addr())
		if err != nil {
			t.Fatalf("dial conn %d: %v", i, err)
		}
		defer cl.Close()
		clients[i] = cl
	}

	var (
		served   atomic.Int64
		hits     atomic.Int64
		failed   atomic.Int64
		degraded atomic.Int64
		firstErr sync.Once
		wg       sync.WaitGroup
		lats     = make([][]time.Duration, shape.conns)
	)
	queryCh := make(chan *model.Query, 4*shape.conns)
	for c := 0; c < shape.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := clients[c]
			for q := range queryCh {
				start := time.Now()
				res, err := cl.Query(ctx, *q)
				if err != nil {
					failed.Add(1)
					firstErr.Do(func() { t.Errorf("query %d failed: %v", q.ID, err) })
					continue
				}
				lats[c] = append(lats[c], time.Since(start))
				served.Add(1)
				if res.Degraded {
					degraded.Add(1)
				}
				if res.Source == "cache" {
					hits.Add(1)
				}
			}
		}(c)
	}

	// The feeder walks the trace in order: queries fan out across the
	// connection pool, updates land at the repository (whose
	// invalidation stream carries them to the owning shards), and any
	// births publish through the router before later queries can
	// reference them.
	adminCl := clients[0]
	start := time.Now()
	var queriesSent, updatesSent, birthsSent int
	for i := range events {
		switch ev := &events[i]; ev.Kind {
		case model.EventQuery:
			queryCh <- ev.Query
			queriesSent++
		case model.EventUpdate:
			repo.ApplyUpdate(*ev.Update)
			updatesSent++
		case model.EventBirth:
			if _, err := adminCl.AddObjects(ctx, []model.Birth{*ev.Birth}); err != nil {
				t.Fatalf("publish birth %d: %v", ev.Birth.Object.ID, err)
			}
			birthsSent++
		}
	}
	close(queryCh)
	wg.Wait()
	elapsed := time.Since(start)

	if failed.Load() > 0 {
		t.Fatalf("%d of %d queries failed", failed.Load(), queriesSent)
	}
	if degraded.Load() > 0 {
		t.Fatalf("%d degraded results from a healthy cluster", degraded.Load())
	}
	if got := int(served.Load()); got != queriesSent {
		t.Fatalf("served %d of %d queries", got, queriesSent)
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	slices.Sort(all)
	pct := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		return all[min(int(float64(len(all))*p), len(all)-1)]
	}

	// Memory bound: after the trace drains, the Go heap must stay
	// under the shape's ceiling — the regression this soak exists to
	// catch is a per-object map or per-connection buffer that scales
	// super-linearly past the million-object mark.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("soak %s: %d objects / %d shards / %d conns: %d queries (%.1f%% cache hits), %d updates, %d births in %v (%.0f q/s, p50 %v, p99 %v); heap %.1f MiB",
		sc.Name(), shape.objects, shape.shards, shape.conns,
		queriesSent, 100*float64(hits.Load())/float64(max(queriesSent, 1)),
		updatesSent, birthsSent, elapsed.Round(time.Millisecond),
		float64(queriesSent)/elapsed.Seconds(), pct(0.50), pct(0.99),
		float64(ms.HeapAlloc)/(1<<20))
	if ms.HeapAlloc > shape.heapCeil {
		t.Fatalf("post-soak heap %d bytes exceeds the %d-byte ceiling", ms.HeapAlloc, shape.heapCeil)
	}
}
