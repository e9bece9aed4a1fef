// Package delta_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (one benchmark per
// artifact; see DESIGN.md's per-experiment index), plus microbenchmarks
// for the hot algorithmic paths. Benchmarks run at a reduced scale so
// `go test -bench=. -benchmem` completes in minutes; `cmd/delta-bench
// -scale 1` reproduces the full 500k-event runs and EXPERIMENTS.md
// records paper-vs-measured for those.
package delta_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
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
	"github.com/deltacache/delta/internal/experiments"
	"github.com/deltacache/delta/internal/flow"
	"github.com/deltacache/delta/internal/gds"
	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/htm"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
	"github.com/deltacache/delta/internal/sim"
)

// benchScale keeps a single policy run around 20k events.
const benchScale = 0.04

func benchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	s, err := experiments.NewSetup(experiments.Options{Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFig7a_TraceGeneration measures producing the Figure 7(a)
// workload scatter: survey construction plus trace generation.
func BenchmarkFig7a_TraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.NewSetup(experiments.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.Fig7a(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7b_CumulativeTraffic replays the trace through all five
// policies of Figure 7(b) and reports their final traffic.
func BenchmarkFig7b_CumulativeTraffic(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var results map[string]*sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = s.RunAll()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	post := experiments.PostWarmup(results, 0.5)
	for _, name := range experiments.PolicyNames {
		b.ReportMetric(post[name].GBf(), name+"_postGB")
	}
}

// BenchmarkFig7b_VCoverOnly isolates the paper's core algorithm on the
// reference trace.
func BenchmarkFig7b_VCoverOnly(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.RunOne(core.NewVCover(core.VCoverConfig{Seed: s.Seed, GDSF: true}))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Total().GBf(), "totalGB")
			b.ReportMetric(float64(res.QueriesAtCache), "atCache")
		}
	}
}

// BenchmarkFig8a_VaryUpdates runs the update-count sweep of Figure 8(a).
func BenchmarkFig8a_VaryUpdates(b *testing.B) {
	base := int(250_000 * benchScale)
	counts := []int{base / 2, base, 3 * base / 2}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8a(experiments.Options{Scale: benchScale}, counts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].Totals["Replica"].GBf(), "replicaMaxGB")
		}
	}
}

// BenchmarkFig8b_Granularity runs the object-granularity sweep of
// Figure 8(b).
func BenchmarkFig8b_Granularity(b *testing.B) {
	counts := []int{10, 68, 134}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8b(experiments.Options{Scale: benchScale}, counts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rows {
				b.ReportMetric(row.Final.GBf(), "gb_at_"+itoa(row.NumObjects))
			}
		}
	}
}

// BenchmarkCacheSizeSweep runs the cache-fraction sweep behind the
// paper's "half the traffic with one-fifth the cache" headline.
func BenchmarkCacheSizeSweep(b *testing.B) {
	fracs := []float64{0.2, 0.3}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CacheSize(experiments.Options{Scale: benchScale}, fracs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Totals["VCover"].GBf(), "vcover_fifth_GB")
			b.ReportMetric(rows[0].Totals["NoCache"].GBf(), "nocache_GB")
		}
	}
}

// BenchmarkBenefitWindowSweep runs the δ sweep the paper used to tune
// Benefit.
func BenchmarkBenefitWindowSweep(b *testing.B) {
	windows := []int{100, 1000}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BenefitWindowSweep(experiments.Options{Scale: benchScale}, windows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmup measures the warm-up characterization across seeds.
func BenchmarkWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Warmup(experiments.Options{Scale: benchScale}, []int64{1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterScaling measures aggregate query throughput of the
// sharded cache cluster at 1/2/4/8 shards against one repository. Each
// shard runs the Replica policy (owned objects preloaded, every query
// answered locally) with a 2ms simulated node-local scan held under
// the shard's serial execution lock — the per-node resource the
// cluster exists to multiply. The router scatters nothing here (every
// query touches one object), so the sweep isolates ownership routing:
// near-linear scaling means the routing tier adds negligible overhead
// over the shards' execution capacity. When BENCH_JSON_DIR is set the
// sweep also writes BENCH_cluster_scaling.json for the CI perf
// trajectory.
func BenchmarkClusterScaling(b *testing.B) {
	const nClients = 24
	const nObjects = 32
	shardCounts := []int{1, 2, 4, 8}
	qps := make(map[int]float64, len(shardCounts))
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			scfg := catalog.DefaultConfig()
			scfg.NumObjects = nObjects
			// Equal-size objects: the size-balanced HTM cut then owns
			// equal object counts per shard, so a uniform per-object
			// query load spreads evenly and the sweep measures routing,
			// not placement skew.
			scfg.TotalSize = 32 * cost.GB
			scfg.MinObjectSize = cost.GB
			scfg.MaxObjectSize = cost.GB
			survey, err := catalog.NewSurvey(scfg)
			if err != nil {
				b.Fatal(err)
			}
			repo, err := server.New(server.Config{Survey: survey, Scale: netproto.PayloadScale{}})
			if err != nil {
				b.Fatal(err)
			}
			if err := repo.Start(); err != nil {
				b.Fatal(err)
			}
			defer repo.Close()
			lc, err := cluster.SpawnLocal(cluster.LocalConfig{
				RepoAddr:  repo.Addr(),
				Objects:   survey.Objects(),
				Shards:    shards,
				Mode:      cluster.HTMAware,
				Policy:    func(int) core.Policy { return core.NewReplica() },
				Scale:     netproto.PayloadScale{},
				ExecDelay: 2 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer lc.Close()

			ctx := context.Background()
			clients := make([]*client.Client, nClients)
			for i := range clients {
				cl, err := client.DialCluster(lc.Router.Addr())
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				clients[i] = cl
			}

			objects := survey.Objects()
			var next atomic.Int64
			start := time.Now()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < nClients; c++ {
				wg.Add(1)
				go func(cl *client.Client) {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						// Hash the sequence number into an object pick:
						// sequential picks would walk the HTM ownership's
						// contiguous ranges one shard at a time, leaving
						// the other shards idle.
						pick := int(uint64(i) * 11400714819323198485 % uint64(len(objects)))
						res, err := cl.Query(ctx, model.Query{
							ID:        model.QueryID(i),
							Objects:   []model.ObjectID{objects[pick].ID},
							Cost:      cost.MB,
							Tolerance: model.AnyStaleness,
							Time:      time.Duration(i) * time.Millisecond,
						})
						if err != nil {
							b.Error(err)
							return
						}
						if res.Degraded {
							b.Error("degraded result from a healthy cluster")
							return
						}
					}
				}(clients[c])
			}
			wg.Wait()
			b.StopTimer()
			rate := float64(b.N) / time.Since(start).Seconds()
			qps[shards] = rate
			b.ReportMetric(rate, "queries/s")
		})
	}
	if qps[1] > 0 {
		b.Logf("cluster scaling: 1→%v q/s, 4 shards %.2fx, 8 shards %.2fx",
			qps[1], qps[4]/qps[1], qps[8]/qps[1])
	}
	if dir := os.Getenv("BENCH_JSON_DIR"); dir != "" {
		writeClusterScalingJSON(b, dir, shardCounts, qps)
	}
}

// writeClusterScalingJSON records the sweep for the CI-accumulated
// perf trajectory (BENCH_*.json artifacts).
func writeClusterScalingJSON(b *testing.B, dir string, shardCounts []int, qps map[int]float64) {
	b.Helper()
	type row struct {
		Shards        int     `json:"shards"`
		QueriesPerSec float64 `json:"queriesPerSec"`
	}
	out := struct {
		Benchmark   string    `json:"benchmark"`
		Timestamp   time.Time `json:"timestamp"`
		Rows        []row     `json:"rows"`
		Speedup4vs1 float64   `json:"speedup4vs1"`
		Speedup8vs1 float64   `json:"speedup8vs1"`
	}{Benchmark: "BenchmarkClusterScaling", Timestamp: time.Now().UTC()}
	for _, s := range shardCounts {
		out.Rows = append(out.Rows, row{Shards: s, QueriesPerSec: qps[s]})
	}
	if qps[1] > 0 {
		out.Speedup4vs1 = qps[4] / qps[1]
		out.Speedup8vs1 = qps[8] / qps[1]
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_cluster_scaling.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote %s", path)
}

// BenchmarkRebalance measures live elastic resharding: a 4→8 resize
// under continuous load from 24 clients, in two modes. "warm" streams
// the moving objects' cached state shard-to-shard during the resize;
// "cold" flips routing identically but skips the migration — the
// restart baseline, where new owners start empty. Reported per mode:
// queries served per second while the resize ran (the cluster must
// keep serving), the resize wall time, and the cache hit rate
// immediately after (warm should retain ~100%, cold loses roughly the
// moving fraction). When BENCH_JSON_DIR is set the run also writes
// BENCH_rebalance.json for the CI bench trajectory.
func BenchmarkRebalance(b *testing.B) {
	var results []rebalanceModeResult
	for _, mode := range []struct {
		name string
		skip bool
	}{
		{name: "warm", skip: false},
		{name: "cold", skip: true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var last rebalanceModeResult
			for iter := 0; iter < b.N; iter++ {
				last = runRebalanceScenario(b, mode.name, mode.skip)
			}
			b.ReportMetric(last.QPSDuringResize, "resize_queries/s")
			b.ReportMetric(last.HitRateAfter, "hitRateAfter")
			b.ReportMetric(last.ResizeMillis, "resizeMillis")
			results = append(results, last)
		})
	}
	if dir := os.Getenv("BENCH_JSON_DIR"); dir != "" {
		out := struct {
			Benchmark string                `json:"benchmark"`
			Timestamp time.Time             `json:"timestamp"`
			Modes     []rebalanceModeResult `json:"modes"`
		}{Benchmark: "BenchmarkRebalance", Timestamp: time.Now().UTC(), Modes: results}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, "BENCH_rebalance.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s", path)
	}
}

// rebalanceModeResult is one BenchmarkRebalance mode's measurement,
// as serialized into BENCH_rebalance.json.
type rebalanceModeResult struct {
	Name            string  `json:"name"`
	HitRateBefore   float64 `json:"hitRateBefore"`
	HitRateAfter    float64 `json:"hitRateAfter"`
	QPSDuringResize float64 `json:"qpsDuringResize"`
	ResizeMillis    float64 `json:"resizeMillis"`
	MovedObjects    int64   `json:"movedObjects"`
}

// runRebalanceScenario stands up a warmed 4-shard cluster, drives
// continuous load, resizes to 8 shards live, and measures the window.
func runRebalanceScenario(b *testing.B, name string, skipMigration bool) (res rebalanceModeResult) {
	b.Helper()
	const (
		nClients = 24
		nObjects = 32
	)
	res.Name = name
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = nObjects
	scfg.TotalSize = 32 * cost.GB
	scfg.MinObjectSize = cost.GB
	scfg.MaxObjectSize = cost.GB
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		b.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.PayloadScale{}})
	if err != nil {
		b.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr:  repo.Addr(),
		Objects:   survey.Objects(),
		Shards:    4,
		Mode:      cluster.HTMAware,
		Scale:     netproto.PayloadScale{},
		ExecDelay: 2 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()

	ctx := context.Background()
	objects := survey.Objects()
	sweep := func() float64 {
		cl, err := client.DialCluster(lc.Router.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		hits := 0
		for _, o := range objects {
			r, err := cl.Query(ctx, model.Query{
				Objects: []model.ObjectID{o.ID}, Cost: cost.KB,
				Tolerance: model.AnyStaleness, Time: time.Minute,
			})
			if err != nil {
				b.Fatal(err)
			}
			if r.Source == "cache" {
				hits++
			}
		}
		return float64(hits) / float64(len(objects))
	}

	// Warm every object into its owning shard (the query's cost covers
	// the load cost, so VCover loads it).
	{
		cl, err := client.DialCluster(lc.Router.Addr())
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range objects {
			if _, err := cl.Query(ctx, model.Query{
				Objects: []model.ObjectID{o.ID}, Cost: o.Size,
				Tolerance: model.AnyStaleness, Time: time.Second,
			}); err != nil {
				b.Fatal(err)
			}
		}
		cl.Close()
	}
	res.HitRateBefore = sweep()

	var (
		stop    atomic.Bool
		served  atomic.Int64
		wg      sync.WaitGroup
		clients []*client.Client
	)
	for c := 0; c < nClients; c++ {
		cl, err := client.DialCluster(lc.Router.Addr())
		if err != nil {
			b.Fatal(err)
		}
		clients = append(clients, cl)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				pick := int(uint64(c*1_000_003+i) * 11400714819323198485 % uint64(len(objects)))
				if _, err := cl.Query(ctx, model.Query{
					Objects: []model.ObjectID{objects[pick].ID}, Cost: cost.KB,
					Tolerance: model.AnyStaleness,
					Time:      time.Minute + time.Duration(i)*time.Millisecond,
				}); err != nil {
					b.Error(err)
					return
				}
				served.Add(1)
			}
		}(c)
	}
	time.Sleep(150 * time.Millisecond) // steady state before the resize

	before := served.Load()
	start := time.Now()
	st, err := lc.Resize(ctx, 8, skipMigration)
	elapsed := time.Since(start)
	if err != nil {
		b.Fatal(err)
	}
	res.ResizeMillis = float64(elapsed.Milliseconds())
	res.QPSDuringResize = float64(served.Load()-before) / elapsed.Seconds()
	res.MovedObjects = st.MovedObjects

	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	for _, cl := range clients {
		cl.Close()
	}
	res.HitRateAfter = sweep()
	return res
}

// BenchmarkGrowth measures live repository growth under load: a
// 4-shard cluster serving 16 concurrent clients while the object
// universe doubles (32→64 objects, published in bursts through the
// router and warmed on arrival). The "static" mode is the baseline —
// identical load, no growth — so the sweep answers the issue's
// acceptance question directly: with growth at 2× per run, the
// steady-state hit rate must stay within 15% of the static baseline
// and q/s must not crater. When BENCH_JSON_DIR is set the run writes
// BENCH_growth.json for the CI bench trajectory (delta-benchdiff
// regression-checks the queriesPerSec/hitRate keys).
func BenchmarkGrowth(b *testing.B) {
	var results []growthModeResult
	for _, mode := range []struct {
		name string
		grow bool
	}{
		{name: "static", grow: false},
		{name: "grow2x", grow: true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var last growthModeResult
			for iter := 0; iter < b.N; iter++ {
				last = runGrowthScenario(b, mode.name, mode.grow)
			}
			b.ReportMetric(last.QueriesPerSec, "queries/s")
			b.ReportMetric(last.HitRateSteady, "hitRateSteady")
			b.ReportMetric(float64(last.UniverseAfter), "universe")
			results = append(results, last)
		})
	}
	if len(results) == 2 && results[0].HitRateSteady > 0 {
		b.Logf("growth: static %.0f q/s hit %.2f → grow2x %.0f q/s hit %.2f",
			results[0].QueriesPerSec, results[0].HitRateSteady,
			results[1].QueriesPerSec, results[1].HitRateSteady)
	}
	if dir := os.Getenv("BENCH_JSON_DIR"); dir != "" {
		out := struct {
			Benchmark string             `json:"benchmark"`
			Timestamp time.Time          `json:"timestamp"`
			Modes     []growthModeResult `json:"modes"`
		}{Benchmark: "BenchmarkGrowth", Timestamp: time.Now().UTC(), Modes: results}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, "BENCH_growth.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s", path)
	}
}

// growthModeResult is one BenchmarkGrowth mode's measurement, as
// serialized into BENCH_growth.json.
type growthModeResult struct {
	Name          string  `json:"name"`
	QueriesPerSec float64 `json:"queriesPerSec"`
	HitRateSteady float64 `json:"hitRateSteady"`
	ObjectsBorn   int64   `json:"objectsBorn"`
	UniverseAfter int     `json:"universeAfter"`
}

// runGrowthScenario stands up a warmed 4-shard cluster, drives 16
// clients, optionally doubles the universe in published bursts while
// they run, and measures throughput plus the steady-state hit rate
// over the final universe.
func runGrowthScenario(b *testing.B, name string, grow bool) (res growthModeResult) {
	b.Helper()
	const (
		nClients  = 16
		nBase     = 32
		nBirths   = 32
		nBursts   = 8
		execDelay = 2 * time.Millisecond
	)
	res.Name = name
	mkSurvey := func() *catalog.Survey {
		scfg := catalog.DefaultConfig()
		scfg.NumObjects = nBase
		scfg.TotalSize = nBase * cost.GB
		scfg.MinObjectSize = cost.GB
		scfg.MaxObjectSize = cost.GB
		survey, err := catalog.NewSurvey(scfg)
		if err != nil {
			b.Fatal(err)
		}
		return survey
	}
	survey, mirror := mkSurvey(), mkSurvey()
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.PayloadScale{}})
	if err != nil {
		b.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   4,
		Mode:     cluster.HTMAware,
		// Room for the doubled universe: newborns must be cacheable.
		ShardCapacity: 2 * nBase * cost.GB,
		Scale:         netproto.PayloadScale{},
		ExecDelay:     execDelay,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()

	ctx := context.Background()
	warm := func(cl *client.Client, ids []model.ObjectID) {
		// A query whose cost covers the load cost makes VCover load the
		// object immediately.
		for _, id := range ids {
			obj, err := mirror.Object(id)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cl.Query(ctx, model.Query{
				Objects: []model.ObjectID{id}, Cost: obj.Size,
				Tolerance: model.AnyStaleness, Time: time.Second,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	adminCl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer adminCl.Close()
	baseIDs := make([]model.ObjectID, 0, nBase)
	for _, o := range survey.Objects() {
		baseIDs = append(baseIDs, o.ID)
	}
	warm(adminCl, baseIDs)

	var (
		knownMu sync.RWMutex
		known   = append([]model.ObjectID(nil), baseIDs...)
		stop    atomic.Bool
		served  atomic.Int64
		wg      sync.WaitGroup
	)
	for c := 0; c < nClients; c++ {
		cl, err := client.DialCluster(lc.Router.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				knownMu.RLock()
				pick := known[int(uint64(c*1_000_003+i)*11400714819323198485%uint64(len(known)))]
				knownMu.RUnlock()
				if _, err := cl.Query(ctx, model.Query{
					Objects: []model.ObjectID{pick}, Cost: cost.KB,
					Tolerance: model.AnyStaleness,
					Time:      time.Minute + time.Duration(i)*time.Millisecond,
				}); err != nil {
					b.Error(err)
					return
				}
				served.Add(1)
			}
		}(c, cl)
	}

	// The measured window: either eight growth bursts (universe
	// doubles) or the same wall time of pure static load.
	growRng := rand.New(rand.NewSource(4242))
	start := time.Now()
	for burst := 0; burst < nBursts; burst++ {
		if grow {
			births, err := mirror.GrowObjects(growRng, nBirths/nBursts, time.Duration(burst)*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := adminCl.AddObjects(ctx, births); err != nil {
				b.Fatal(err)
			}
			ids := make([]model.ObjectID, len(births))
			for i, bb := range births {
				ids[i] = bb.Object.ID
			}
			warm(adminCl, ids)
			knownMu.Lock()
			known = append(known, ids...)
			knownMu.Unlock()
			time.Sleep(20 * time.Millisecond)
		} else {
			time.Sleep(30 * time.Millisecond)
		}
	}
	elapsed := time.Since(start)
	res.QueriesPerSec = float64(served.Load()) / elapsed.Seconds()

	stop.Store(true)
	wg.Wait()

	// Steady state: sweep the final universe once and count cache hits.
	knownMu.RLock()
	finalIDs := append([]model.ObjectID(nil), known...)
	knownMu.RUnlock()
	hits := 0
	for _, id := range finalIDs {
		r, err := adminCl.Query(ctx, model.Query{
			Objects: []model.ObjectID{id}, Cost: cost.KB,
			Tolerance: model.AnyStaleness, Time: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Source == "cache" {
			hits++
		}
	}
	res.HitRateSteady = float64(hits) / float64(len(finalIDs))
	res.UniverseAfter = len(finalIDs)
	cs, err := adminCl.ClusterStats(ctx)
	if err != nil {
		b.Fatal(err)
	}
	res.ObjectsBorn = cs.Aggregate.ObjectsBorn
	return res
}

// BenchmarkReplicaHedging prices K-way replication and the hedged-read
// tail cut on a 3-shard cluster with one deliberate straggler (10ms
// node-local scans, queries cache-resident under the replica policy):
// the "failover-only" mode routes every fragment to its primary and
// simply waits out the straggler, the "hedged" mode re-scatters to the
// next replica after a pinned 2ms hedge delay and takes the first
// complete answer. Expect the hedge to cut p99 by roughly the
// straggler's stall. When BENCH_JSON_DIR is set the run also measures
// the K=1→K=2 throughput cost on a healthy cluster and writes
// BENCH_replication.json; CI's strict benchdiff gate watches
// p99RatioFailoverOverHedged (higher = hedging wins more).
func BenchmarkReplicaHedging(b *testing.B) {
	const slowDelay = 10 * time.Millisecond
	for _, mode := range []struct {
		name  string
		hedge bool
	}{
		{name: "failover-only", hedge: false},
		{name: "hedged", hedge: true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			qps, p99 := runReplicationScenario(b, 2, mode.hedge, slowDelay, b.N)
			b.ReportMetric(qps, "queries/s")
			b.ReportMetric(float64(p99.Microseconds()), "p99-µs")
		})
	}
	if dir := os.Getenv("BENCH_JSON_DIR"); dir != "" {
		writeReplicationJSON(b, dir)
	}
}

// runReplicationScenario boots a 3-shard replicated cluster (repository
// + shards + router on loopback), makes shard 0 a straggler when
// slowDelay is set, drives n single-object queries from 16 concurrent
// clients, and returns the measured q/s and client-observed p99.
func runReplicationScenario(b *testing.B, replicas int, hedge bool, slowDelay time.Duration, n int) (float64, time.Duration) {
	b.Helper()
	const nClients = 16
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 16
	scfg.TotalSize = 16 * cost.GB
	scfg.MinObjectSize = 100 * cost.MB
	scfg.MaxObjectSize = 4 * cost.GB
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		b.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.PayloadScale{}})
	if err != nil {
		b.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	lcfg := cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   3,
		Mode:     cluster.HTMAware,
		Replicas: replicas,
		Hedge:    hedge,
		// Pinned: the scenario measures the hedge mechanism, not the
		// cold-histogram p99 derivation.
		HedgeDelay: 2 * time.Millisecond,
		// The replica policy keeps every object cache-resident, so the
		// straggler's ExecDelay (cache-answer scan time) actually stalls.
		Policy: func(int) core.Policy { return core.NewReplica() },
		Scale:  netproto.PayloadScale{},
	}
	if slowDelay > 0 {
		lcfg.ShardExecDelay = func(s int) time.Duration {
			if s == 0 {
				return slowDelay
			}
			return -1
		}
	}
	lc, err := cluster.SpawnLocal(lcfg)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()

	ctx := context.Background()
	clients := make([]*client.Client, nClients)
	for i := range clients {
		cl, err := client.DialCluster(lc.Router.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}
	// Warm every shard's residents through its primaries (first touch
	// ships from the repository without the scan delay).
	for i, obj := range survey.Objects() {
		if _, err := clients[0].Query(ctx, model.Query{
			ID:        model.QueryID(i + 1),
			Objects:   []model.ObjectID{obj.ID},
			Cost:      cost.MB,
			Tolerance: model.AnyStaleness,
			Time:      time.Duration(i) * time.Millisecond,
		}); err != nil {
			b.Fatal(err)
		}
	}

	lats := make([][]time.Duration, nClients)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := clients[c]
			for {
				i := next.Add(1)
				if i > int64(n) {
					return
				}
				qStart := time.Now()
				if _, err := cl.Query(ctx, model.Query{
					ID:        model.QueryID(i + 16),
					Objects:   []model.ObjectID{model.ObjectID(i%16 + 1)},
					Cost:      cost.MB,
					Tolerance: model.AnyStaleness,
					Time:      time.Duration(i) * time.Millisecond,
				}); err != nil {
					b.Error(err)
					return
				}
				lats[c] = append(lats[c], time.Since(qStart))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	slices.Sort(all)
	var p99 time.Duration
	if len(all) > 0 {
		p99 = all[len(all)*99/100]
	}
	return float64(n) / elapsed.Seconds(), p99
}

// writeReplicationJSON measures the hedging tail cut and the
// replication throughput cost at fixed iteration counts — independent
// of b.N, so CI's -benchtime=1x trajectory run stays comparable — and
// records them for the perf trajectory. p99RatioFailoverOverHedged is
// higher-is-better (how many times worse the unhedged tail is) and is
// what the strict benchdiff gate on main checks; qpsRatioK2OverK1 is
// the throughput a healthy cluster pays for holding K=2 copies.
func writeReplicationJSON(b *testing.B, dir string) {
	b.Helper()
	const (
		itersLat = 600  // straggler serializes ~1/3 of these at 10ms
		itersQPS = 1500 // healthy-cluster throughput measurement
	)
	const slowDelay = 10 * time.Millisecond
	_, p99Failover := runReplicationScenario(b, 2, false, slowDelay, itersLat)
	_, p99Hedged := runReplicationScenario(b, 2, true, slowDelay, itersLat)
	qpsK1, _ := runReplicationScenario(b, 1, false, 0, itersQPS)
	qpsK2, _ := runReplicationScenario(b, 2, false, 0, itersQPS)
	out := struct {
		Benchmark                  string    `json:"benchmark"`
		Timestamp                  time.Time `json:"timestamp"`
		P99FailoverOnlyMicros      float64   `json:"p99FailoverOnlyMicros"`
		P99HedgedMicros            float64   `json:"p99HedgedMicros"`
		P99RatioFailoverOverHedged float64   `json:"p99RatioFailoverOverHedged"`
		QPSK1                      float64   `json:"qpsK1"`
		QPSK2                      float64   `json:"qpsK2"`
		QPSRatioK2OverK1           float64   `json:"qpsRatioK2OverK1"`
	}{
		Benchmark:             "BenchmarkReplicaHedging",
		Timestamp:             time.Now().UTC(),
		P99FailoverOnlyMicros: float64(p99Failover.Microseconds()),
		P99HedgedMicros:       float64(p99Hedged.Microseconds()),
		QPSK1:                 qpsK1,
		QPSK2:                 qpsK2,
	}
	if p99Hedged > 0 {
		out.P99RatioFailoverOverHedged = float64(p99Failover) / float64(p99Hedged)
	}
	if qpsK1 > 0 {
		out.QPSRatioK2OverK1 = qpsK2 / qpsK1
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_replication.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote %s (p99 failover/hedged %.2f×, K2/K1 qps %.3f)",
		path, out.P99RatioFailoverOverHedged, out.QPSRatioK2OverK1)
}

// BenchmarkRouterHotPath prices the router's read-path deduplication —
// the in-flight query coalescer plus the invalidation-aware result
// cache — under a flash-crowd shape: 64 concurrent clients hammering a
// handful of hot object sets (90% of queries hit the hottest one),
// each with its own randomized cost and staleness, against a 3-shard
// cluster whose shards dwell 2ms per scatter fragment. The "off" mode
// disables the result cache (ResultCacheSize -1, every query
// scatters); the "on" mode runs the default configuration. Both modes
// run back to back in one process, so the on/off q/s ratio is stable
// on shared runners; the acceptance bar is ≥2× and CI's strict
// benchdiff gate watches qpsRatioOnOverOff in BENCH_router.json.
func BenchmarkRouterHotPath(b *testing.B) {
	for _, mode := range []struct {
		name    string
		cacheOn bool
	}{
		{name: "off", cacheOn: false},
		{name: "on", cacheOn: true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m := runRouterHotPath(b, mode.cacheOn, b.N)
			b.ReportMetric(m.qps, "queries/s")
			b.ReportMetric(float64(m.p99.Microseconds()), "p99-µs")
			b.ReportMetric(m.coalesceShare, "coalesced-share")
			b.ReportMetric(m.hitRate, "cache-hit-rate")
		})
	}
	if dir := os.Getenv("BENCH_JSON_DIR"); dir != "" {
		writeRouterJSON(b, dir)
	}
}

// routerHotPathMetrics is one mode's measurement: throughput, client
// tail latency, and how the router answered (coalesced onto a live
// flight / served from the result cache / scattered).
type routerHotPathMetrics struct {
	qps           float64
	p99           time.Duration
	coalesceShare float64 // coalesced follower answers / total queries
	hitRate       float64 // result-cache hits / total queries
}

// runRouterHotPath boots the flash-crowd topology (repository + 3
// shards + router on loopback), drives n hot-set queries from 64
// concurrent clients, and returns the measured rates.
func runRouterHotPath(b *testing.B, cacheOn bool, n int) routerHotPathMetrics {
	b.Helper()
	const (
		nClients = 64
		nShards  = 3
		nShapes  = 8 // distinct hot object sets; shape 0 takes 90%
	)
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 16
	scfg.TotalSize = 16 * cost.GB
	scfg.MinObjectSize = cost.GB
	scfg.MaxObjectSize = cost.GB
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		b.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.PayloadScale{}})
	if err != nil {
		b.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	size := 0
	if !cacheOn {
		size = -1
	}
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   nShards,
		Mode:     cluster.HTMAware,
		// The replica policy keeps every object cache-resident at the
		// shards, so ExecDelay (the simulated node-local scan) is the
		// scatter's whole cost and the router-tier dedup is what the
		// on/off ratio isolates.
		Policy:          func(int) core.Policy { return core.NewReplica() },
		Scale:           netproto.PayloadScale{},
		ExecDelay:       2 * time.Millisecond,
		ResultCacheSize: size,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()

	// The hot query shapes: spanning object sets (one object per shard,
	// rotated), so every scatter costs every shard a dwell — the worst
	// case a flash crowd inflicts without the router-tier cache.
	objects := survey.Objects()
	shapes := make([][]model.ObjectID, nShapes)
	for s := range shapes {
		for k := 0; k < nShards; k++ {
			shapes[s] = append(shapes[s], objects[(s+k*nShapes/2)%len(objects)].ID)
		}
	}

	ctx := context.Background()
	clients := make([]*client.Client, nClients)
	for i := range clients {
		cl, err := client.DialCluster(lc.Router.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}

	lats := make([][]time.Duration, nClients)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := clients[c]
			for {
				i := next.Add(1)
				if i > int64(n) {
					return
				}
				// 90% of the crowd hammers shape 0; the rest spread over
				// the remaining shapes. Cost and staleness vary per query
				// — the signature keys on the object set alone, exactly
				// because real crowds differ in everything else.
				shape := 0
				if i%10 == 9 {
					shape = int(i/10)%(nShapes-1) + 1
				}
				qStart := time.Now()
				if _, err := cl.Query(ctx, model.Query{
					ID:        model.QueryID(i),
					Objects:   shapes[shape],
					Cost:      cost.Bytes(1+i%4) * cost.MB,
					Tolerance: time.Hour + time.Duration(i%4)*time.Minute,
					Time:      time.Duration(i) * time.Millisecond,
				}); err != nil {
					b.Error(err)
					return
				}
				lats[c] = append(lats[c], time.Since(qStart))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	slices.Sort(all)
	m := routerHotPathMetrics{qps: float64(n) / elapsed.Seconds()}
	if len(all) > 0 {
		m.p99 = all[len(all)*99/100]
	}
	if n > 0 {
		m.coalesceShare = float64(lc.Router.Coalesced()) / float64(n)
		m.hitRate = float64(lc.Router.ResultCacheHits()) / float64(n)
	}
	return m
}

// writeRouterJSON measures both modes back to back at a fixed
// iteration count — independent of b.N, so CI's -benchtime=1x
// trajectory run stays comparable — and records the flash-crowd
// comparison for the perf trajectory. qpsRatioOnOverOff is
// higher-is-better (≥2 is the acceptance bar) and is what the strict
// benchdiff gate on main checks.
func writeRouterJSON(b *testing.B, dir string) {
	b.Helper()
	const iters = 3000
	off := runRouterHotPath(b, false, iters)
	on := runRouterHotPath(b, true, iters)
	out := struct {
		Benchmark         string    `json:"benchmark"`
		Timestamp         time.Time `json:"timestamp"`
		QPSOff            float64   `json:"qpsCacheOff"`
		QPSOn             float64   `json:"qpsCacheOn"`
		QPSRatioOnOverOff float64   `json:"qpsRatioOnOverOff"`
		P99OffMicros      float64   `json:"p99CacheOffMicros"`
		P99OnMicros       float64   `json:"p99CacheOnMicros"`
		CoalescedShareOn  float64   `json:"coalescedShareOn"`
		CacheHitRateOn    float64   `json:"cacheHitRateOn"`
	}{
		Benchmark:        "BenchmarkRouterHotPath",
		Timestamp:        time.Now().UTC(),
		QPSOff:           off.qps,
		QPSOn:            on.qps,
		P99OffMicros:     float64(off.p99.Microseconds()),
		P99OnMicros:      float64(on.p99.Microseconds()),
		CoalescedShareOn: on.coalesceShare,
		CacheHitRateOn:   on.hitRate,
	}
	if off.qps > 0 {
		out.QPSRatioOnOverOff = on.qps / off.qps
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_router.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote %s (on/off qps ratio %.2f, hit rate %.2f, coalesced %.2f)",
		path, out.QPSRatioOnOverOff, out.CacheHitRateOn, out.CoalescedShareOn)
}

// --- ablations for the design choices DESIGN.md calls out ---

// BenchmarkAblationGDSvsGDSF compares plain Greedy-Dual-Size against the
// frequency-aware variant in the LoadManager.
func BenchmarkAblationGDSvsGDSF(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		gdsRes, err := s.RunOne(core.NewVCover(core.VCoverConfig{Seed: s.Seed, GDSF: false}))
		if err != nil {
			b.Fatal(err)
		}
		gdsfRes, err := s.RunOne(core.NewVCover(core.VCoverConfig{Seed: s.Seed, GDSF: true}))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(gdsRes.Total().GBf(), "gdsGB")
			b.ReportMetric(gdsfRes.Total().GBf(), "gdsfGB")
		}
	}
}

// --- microbenchmarks for the algorithmic substrates ---

// BenchmarkVCoverDecisions measures per-event decision latency of the
// core algorithm (both managers, steady state).
func BenchmarkVCoverDecisions(b *testing.B) {
	s := benchSetup(b)
	p := core.NewVCover(core.VCoverConfig{Seed: 1, GDSF: true})
	if err := p.Init(s.Survey.Objects(), s.Capacity()); err != nil {
		b.Fatal(err)
	}
	events := s.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &events[i%len(events)]
		var err error
		if e.Kind == model.EventQuery {
			// Fresh IDs per pass: the trace is replayed cyclically and
			// query/update identifiers must stay unique.
			q := *e.Query
			q.ID = model.QueryID(i + 1_000_000)
			_, err = p.OnQuery(&q)
		} else {
			u := *e.Update
			u.ID = model.UpdateID(i + 1_000_000)
			_, err = p.OnUpdate(&u)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBenefitDecisions measures the heuristic's per-event cost.
func BenchmarkBenefitDecisions(b *testing.B) {
	s := benchSetup(b)
	p := core.NewBenefit(core.DefaultBenefitConfig())
	if err := p.Init(s.Survey.Objects(), s.Capacity()); err != nil {
		b.Fatal(err)
	}
	events := s.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &events[i%len(events)]
		var err error
		if e.Kind == model.EventQuery {
			_, err = p.OnQuery(e.Query)
		} else {
			_, err = p.OnUpdate(e.Update)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalVertexCover measures the incremental min-weight
// vertex cover under churn: add a query + edges, solve, remove covered
// updates — VCover's inner loop.
func BenchmarkIncrementalVertexCover(b *testing.B) {
	bip := flow.NewBipartite()
	for u := int64(0); u < 64; u++ {
		if err := bip.AddRight(u, u%7+1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := int64(i)
		if err := bip.AddLeft(q, int64(i%11+1)); err != nil {
			b.Fatal(err)
		}
		for k := int64(0); k < 3; k++ {
			u := (q*3 + k) % 64
			if !bip.HasRight(u) {
				if err := bip.AddRight(u, u%7+1); err != nil {
					b.Fatal(err)
				}
			}
			if err := bip.Connect(q, u); err != nil {
				b.Fatal(err)
			}
		}
		cover := bip.Solve()
		for _, u := range cover.Right {
			if err := bip.RemoveRight(u); err != nil {
				b.Fatal(err)
			}
		}
		for _, l := range bip.Lefts() {
			if !cover.ContainsLeft(l) || bip.DegreeLeft(l) == 0 {
				if err := bip.RemoveLeft(l); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkGDSAdmit measures Greedy-Dual-Size admissions with eviction
// pressure.
func BenchmarkGDSAdmit(b *testing.B) {
	c, err := gds.New(1<<30, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Admit(gds.Entry{
			Key:  int64(i % 256),
			Size: int64(i%64+1) << 20,
			Cost: int64(i%64+1) << 20,
		})
	}
}

// BenchmarkHTMLocate measures point location at the paper's default
// granularity.
func BenchmarkHTMLocate(b *testing.B) {
	pts := make([]geom.Vec3, 128)
	for i := range pts {
		pts[i] = geom.FromRADec(float64(i*7%360), float64(i%160-80))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htm.Locate(pts[i%len(pts)], 5); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkRestartRecovery measures what durable warm restarts buy: a
// 3-shard cluster is fully warmed, shard 1 is bounced, and the run
// measures how long the cluster takes to return to a steady hit rate
// plus its post-restart throughput. The "cold" mode restarts the shard
// with no persistence (it rejoins empty and reloads on demand); the
// "warm" mode restarts it from its data directory, so the recovered
// residents rejoin without touching the repository. When BENCH_JSON_DIR
// is set the run writes BENCH_persist.json for the CI bench trajectory.
func BenchmarkRestartRecovery(b *testing.B) {
	var results []restartModeResult
	for _, mode := range []struct {
		name string
		warm bool
	}{
		{name: "cold", warm: false},
		{name: "warm", warm: true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var last restartModeResult
			for iter := 0; iter < b.N; iter++ {
				last = runRestartScenario(b, mode.name, mode.warm)
			}
			b.ReportMetric(last.TimeToSteadyMillis, "steadyMs")
			b.ReportMetric(last.QueriesPerSec, "queries/s")
			b.ReportMetric(last.FirstSweepHitRate, "firstSweepHitRate")
			results = append(results, last)
		})
	}
	if len(results) == 2 {
		b.Logf("restart: cold steady %.1fms hit %.2f → warm steady %.1fms hit %.2f (recovered %d residents)",
			results[0].TimeToSteadyMillis, results[0].FirstSweepHitRate,
			results[1].TimeToSteadyMillis, results[1].FirstSweepHitRate,
			results[1].RecoveredWarm)
	}
	if dir := os.Getenv("BENCH_JSON_DIR"); dir != "" {
		out := struct {
			Benchmark string              `json:"benchmark"`
			Timestamp time.Time           `json:"timestamp"`
			Modes     []restartModeResult `json:"modes"`
		}{Benchmark: "BenchmarkRestartRecovery", Timestamp: time.Now().UTC(), Modes: results}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, "BENCH_persist.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s", path)
	}
}

// restartModeResult is one BenchmarkRestartRecovery mode's measurement,
// as serialized into BENCH_persist.json.
type restartModeResult struct {
	Name               string  `json:"name"`
	RestartMillis      float64 `json:"restartMillis"`
	TimeToSteadyMillis float64 `json:"timeToSteadyMillis"`
	FirstSweepHitRate  float64 `json:"firstSweepHitRate"`
	QueriesPerSec      float64 `json:"queriesPerSec"`
	RecoveredWarm      int64   `json:"recoveredWarm"`
}

// runRestartScenario warms a 3-shard cluster over 24 equal objects,
// bounces shard 1 (with or without a persistence directory), and
// measures recovery: hit-rate sweeps until steady (≥99% of queries
// answered at cache) and a short concurrent-throughput burst.
func runRestartScenario(b *testing.B, name string, warm bool) (res restartModeResult) {
	b.Helper()
	const nBase = 24
	// A non-trivial payload scale is what makes the cold baseline pay:
	// every logical GB a restarted-cold shard reloads ships 16 MiB from
	// the repository, while a warm-recovered resident ships nothing.
	scale := netproto.PayloadScale{BytesPerGB: 16 << 20}
	res.Name = name
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = nBase
	scfg.TotalSize = nBase * cost.GB
	scfg.MinObjectSize = cost.GB
	scfg.MaxObjectSize = cost.GB
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		b.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: survey, Scale: scale})
	if err != nil {
		b.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	lcfg := cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   3,
		Mode:     cluster.HTMAware,
		Scale:    scale,
	}
	if warm {
		dir := b.TempDir()
		lcfg.ShardDataDir = func(s int) string {
			return filepath.Join(dir, fmt.Sprintf("shard-%d", s))
		}
		lcfg.SnapshotInterval = 50 * time.Millisecond
	}
	lc, err := cluster.SpawnLocal(lcfg)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()

	ctx := context.Background()
	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ids := make([]model.ObjectID, 0, nBase)
	for _, o := range survey.Objects() {
		ids = append(ids, o.ID)
		// Query cost = object size forces the immediate load: the whole
		// cluster is warm before the bounce.
		if _, err := cl.Query(ctx, model.Query{
			Objects: []model.ObjectID{o.ID}, Cost: o.Size,
			Tolerance: model.AnyStaleness, Time: time.Second,
		}); err != nil {
			b.Fatal(err)
		}
	}

	restartStart := time.Now()
	if err := lc.RestartShard(ctx, 1); err != nil {
		b.Fatal(err)
	}
	res.RestartMillis = float64(time.Since(restartStart).Milliseconds())

	// Sweep the universe until steady: every sweep queries every object
	// at full cost, so cold shards reload what they miss and converge.
	sweep := func() float64 {
		hits := 0
		for _, id := range ids {
			r, err := cl.Query(ctx, model.Query{
				Objects: []model.ObjectID{id}, Cost: cost.GB,
				Tolerance: model.AnyStaleness, Time: time.Minute,
			})
			if err != nil {
				b.Fatal(err)
			}
			if r.Source == "cache" {
				hits++
			}
		}
		return float64(hits) / float64(len(ids))
	}
	for i := 0; i < 20; i++ {
		rate := sweep()
		if i == 0 {
			res.FirstSweepHitRate = rate
		}
		if rate >= 0.99 {
			res.TimeToSteadyMillis = float64(time.Since(restartStart).Milliseconds())
			break
		}
	}

	// Post-restart throughput burst: 8 workers hammering the warm
	// universe for a fixed window.
	var served atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wcl, err := client.DialCluster(lc.Router.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer wcl.Close()
		wg.Add(1)
		go func(w int, wcl *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				id := ids[rng.Intn(len(ids))]
				if _, err := wcl.Query(ctx, model.Query{
					Objects: []model.ObjectID{id}, Cost: cost.GB,
					Tolerance: model.AnyStaleness, Time: time.Minute,
				}); err != nil {
					return
				}
				served.Add(1)
			}
		}(w, wcl)
	}
	window := 200 * time.Millisecond
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	res.QueriesPerSec = float64(served.Load()) / window.Seconds()

	st, err := cl.ClusterStats(ctx)
	if err != nil {
		b.Fatal(err)
	}
	res.RecoveredWarm = st.Aggregate.RecoveredWarm
	return res
}
