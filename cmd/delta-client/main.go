// Command delta-client submits queries to a Delta deployment. It speaks
// the astronomy SQL dialect:
//
//	delta-client -cache 127.0.0.1:7708 \
//	  -sql "SELECT ra, dec FROM PhotoObj WHERE CONTAINS(POINT(180,0), CIRCLE(180,0,1)) WITH STALENESS '10m'"
//
// or drives a random demo workload with -demo N (optionally fanned out
// over -workers concurrent submitters), and prints the cache's
// statistics with -stats.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/obs"
	"github.com/deltacache/delta/internal/sqlmini"
	"github.com/deltacache/delta/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "delta-client:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		cacheAddr = flag.String("cache", "127.0.0.1:7708", "cache address")
		sql       = flag.String("sql", "", "SQL query to run")
		demo      = flag.Int("demo", 0, "run N random demo queries")
		workers   = flag.Int("workers", 1, "concurrent submitters for -demo")
		pool      = flag.Int("pool", 1, "connections in the session pool")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		stats     = flag.Bool("stats", false, "print cache statistics")
		cstats    = flag.Bool("cluster-stats", false, "print per-shard cluster statistics (routers; a single cache answers as one shard)")
		resize    = flag.String("resize", "", "resize the cluster live to this comma-separated shard address list (routers only)")
		rebStatus = flag.Bool("rebalance-status", false, "print the router's rebalance progress view")
		grow      = flag.Int("grow", 0, "publish N new data objects into the deployment (assumes this client is the only grower, so locally generated IDs line up)")
		growSeed  = flag.Int64("grow-seed", 1, "seed for -grow object generation")
		objects   = flag.Int("objects", 68, "objects (must match deployment)")
		seed      = flag.Int64("seed", 2, "survey seed (must match deployment)")
		region    = flag.String("region", "", "query a sky region \"ra,dec,radiusDeg\" resolved server-side (no local universe needed)")
		trace     = flag.Bool("trace", false, "stamp queries with a trace ID and print the per-hop fan-out tree (router scatter, shard fragments, repository work)")
		scenario  = flag.String("scenario", "", "replay a named workload scenario against the deployment (see -list-scenarios; fanned out over -workers)")
		scnQ      = flag.Int("scenario-queries", 0, "query count for -scenario (0 = the scenario's default)")
		scnU      = flag.Int("scenario-updates", 0, "update count for -scenario (0 = the scenario's default; repository-side updates are skipped by the client)")
		listScens = flag.Bool("list-scenarios", false, "list the named workload scenarios and exit")
	)
	flag.Parse()
	ctx := context.Background()

	if *listScens {
		for _, sc := range workload.Scenarios() {
			fmt.Printf("%-18s %s\n", sc.Name(), sc.Description())
		}
		return nil
	}

	scfg := catalog.DefaultConfig()
	scfg.Seed = *seed
	scfg.NumObjects = *objects
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		return err
	}

	opts := []client.Option{
		client.WithPoolSize(*pool),
		client.WithRequestTimeout(*timeout),
	}
	if *trace {
		opts = append(opts, client.WithTrace())
	}
	// The demo keeps a client-side latency histogram: the end-to-end
	// wall-clock view including the network, where the per-result
	// Elapsed is only server-side handling time.
	var demoLat *obs.Histogram
	if *demo > 0 || *scenario != "" {
		demoLat = obs.NewRegistry().NewHistogram(
			"client_query_seconds", "Client-observed query latency.", nil)
		opts = append(opts, client.WithQueryObserver(demoLat.Observe))
	}
	cl, err := client.Dial(*cacheAddr, opts...)
	if err != nil {
		return err
	}
	defer cl.Close()

	start := time.Now()
	switch {
	case *sql != "":
		if err := runSQL(ctx, cl, survey, *sql, start); err != nil {
			return err
		}
	case *region != "":
		if err := runRegion(ctx, cl, *region, start); err != nil {
			return err
		}
	case *demo > 0:
		if err := runDemo(ctx, cl, survey, *demo, *workers, start); err != nil {
			return err
		}
		printLatency(demoLat)
	case *scenario != "":
		if err := runScenario(ctx, cl, survey, *scenario, *scnQ, *scnU, *workers); err != nil {
			return err
		}
		printLatency(demoLat)
	case *resize != "":
		st, err := cl.Resize(ctx, strings.Split(*resize, ","))
		if err != nil {
			return err
		}
		printRebalance(st)
	case *grow > 0:
		if err := runGrow(ctx, cl, survey, *grow, *growSeed, start); err != nil {
			return err
		}
	case *stats || *cstats || *rebStatus:
		// handled below
	default:
		flag.Usage()
		return fmt.Errorf("one of -sql, -region, -demo, -scenario, -list-scenarios, -stats, -cluster-stats, -resize, -rebalance-status, -grow is required")
	}

	if *stats || *demo > 0 {
		st, err := cl.Stats(ctx)
		if err != nil {
			return err
		}
		printStats(st)
	}
	if *cstats {
		cs, err := cl.ClusterStats(ctx)
		if err != nil {
			return err
		}
		printClusterStats(cs)
	}
	if *rebStatus {
		st, err := cl.RebalanceStatus(ctx)
		if err != nil {
			return err
		}
		printRebalance(st)
	}
	return nil
}

// printClusterStats renders the per-shard breakdown as a table plus a
// hit-rate spread summary (an unbalanced spread is the first sign one
// shard's working set outgrew its cache).
func printClusterStats(cs *netproto.ClusterStatsMsg) {
	degraded := ""
	if cs.Degraded {
		degraded = " DEGRADED"
	}
	fmt.Printf("cluster: %d shards%s\n", len(cs.Shards), degraded)
	fmt.Printf("  %-5s %-21s %9s %9s %8s %8s %6s %7s %10s\n",
		"shard", "addr", "queries", "hit-rate", "cached", "shipped", "born", "mig-in", "traffic")
	var rates []float64
	for _, sh := range cs.Shards {
		if !sh.Alive {
			fmt.Printf("  %-5d %-21s DOWN (%s)\n", sh.Shard, sh.Addr, sh.Err)
			continue
		}
		var rate float64
		if sh.Stats.Queries > 0 {
			rate = float64(sh.Stats.AtCache) / float64(sh.Stats.Queries)
		}
		rates = append(rates, rate)
		fmt.Printf("  %-5d %-21s %9d %8.1f%% %8d %8.0f %6.0f %7.0f %10v\n",
			sh.Shard, sh.Addr, sh.Stats.Queries, rate*100, len(sh.Stats.Cached),
			sh.Stats.Metric("delta_queries_shipped_total"),
			sh.Stats.Metric("delta_objects_born_total"),
			sh.Stats.Metric("delta_migrated_in_total"),
			sh.Stats.Ledger.Total())
	}
	if len(rates) > 0 {
		lo, hi, sum := rates[0], rates[0], 0.0
		for _, r := range rates {
			sum += r
			lo = min(lo, r)
			hi = max(hi, r)
		}
		fmt.Printf("  hit-rate across %d live shards: min=%.1f%% mean=%.1f%% max=%.1f%%\n",
			len(rates), lo*100, sum/float64(len(rates))*100, hi*100)
	}
	fmt.Println("aggregate:")
	printStats(&cs.Aggregate)
}

// printTrace renders a traced query's fan-out tree.
func printTrace(res *client.Result) {
	if res.TraceID == 0 || len(res.Spans) == 0 {
		return
	}
	fmt.Printf("trace %#x:\n%s", res.TraceID, obs.FormatSpans(res.Spans))
}

// quantileDur converts a histogram quantile (seconds) to a rounded
// duration for display.
func quantileDur(h *obs.Histogram, p float64) time.Duration {
	return time.Duration(h.Quantile(p) * float64(time.Second)).Round(10 * time.Microsecond)
}

func printRebalance(st *netproto.RebalanceStatusMsg) {
	fmt.Printf("rebalance: phase=%s epoch=%d shards %d→%d moved=%d objects (%v) completed=%d\n",
		st.Phase, st.Epoch, st.From, st.To, st.MovedObjects, st.MovedBytes, st.Completed)
	if st.LastError != "" {
		fmt.Printf("  last error: %s\n", st.LastError)
	}
}

// printStats renders a node's stats answer: its policy, its traffic
// ledger, one line per counter and gauge sample, and its residents.
func printStats(st *netproto.StatsMsg) {
	fmt.Printf("policy=%s\n", st.Policy)
	fmt.Printf("traffic: query-ship=%v update-ship=%v loads=%v total=%v\n",
		st.Ledger.QueryShip, st.Ledger.UpdateShip, st.Ledger.ObjectLoad, st.Ledger.Total())
	for _, m := range st.Metrics {
		fmt.Printf("%s %s\n", m.Name, strconv.FormatFloat(m.Value, 'f', -1, 64))
	}
	fmt.Printf("cached objects: %v\n", st.Cached)
}

// runGrow publishes n new objects. It first replays the births already
// published through the seeded generator, so a second run continues the
// ID sequence (assuming one grower with a stable seed). It counts each
// birth once: a router's aggregate delta_objects_born_total counts one
// per holder, so a router's delta_router_births_total comes first.
func runGrow(ctx context.Context, cl *client.Client, survey *catalog.Survey, n int, seed int64, start time.Time) error {
	rng := rand.New(rand.NewSource(seed))
	st, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	if born := int(cmp.Or(st.Metric("delta_router_births_total"), st.Metric("delta_objects_born_total"))); born > 0 {
		if _, err := survey.GrowObjects(rng, born, 0); err != nil {
			return fmt.Errorf("replaying %d published births: %w", born, err)
		}
	}
	births, err := survey.GrowObjects(rng, n, time.Since(start))
	if err != nil {
		return err
	}
	accepted, err := cl.AddObjects(ctx, births)
	if err != nil {
		return err
	}
	fmt.Printf("published %d new objects (%d newly admitted; universe now %d objects)\n",
		len(births), accepted, survey.NumObjects())
	for _, b := range births {
		fmt.Printf("  object %d: %v at ra=%.3f dec=%.3f\n", b.Object.ID, b.Object.Size, b.RA, b.Dec)
	}
	return nil
}

// runRegion submits one sky-region query resolved server-side: the
// cache or router maps the cap to B(q) through its memoized HTM cover
// cache, so this path needs no local survey mirror at all.
func runRegion(ctx context.Context, cl *client.Client, spec string, start time.Time) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return fmt.Errorf("-region wants \"ra,dec,radiusDeg\", got %q", spec)
	}
	var ra, dec, radius float64
	if _, err := fmt.Sscanf(spec, "%f,%f,%f", &ra, &dec, &radius); err != nil {
		return fmt.Errorf("-region %q: %w", spec, err)
	}
	res, err := cl.QueryRegion(ctx, ra, dec, radius, model.Query{
		Cost:      cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Since(start),
	})
	if err != nil {
		return err
	}
	fmt.Printf("region (%g, %g, r=%g°) answered by %s in %v\n", ra, dec, radius, res.Source, res.Elapsed)
	printTrace(res)
	for _, row := range res.Rows {
		fmt.Printf("  objID=%d ra=%.4f dec=%.4f r=%.2f\n", row.ObjID, row.RA, row.Dec, row.R)
	}
	return nil
}

func runSQL(ctx context.Context, cl *client.Client, survey *catalog.Survey, sql string, start time.Time) error {
	st, q, err := sqlmini.Compile(sql, survey)
	if err != nil {
		return err
	}
	q.Time = time.Since(start)
	res, err := cl.Query(ctx, *q)
	if err != nil {
		return err
	}
	fmt.Printf("answered by %s in %v; result size %v; B(q)=%v\n",
		res.Source, res.Elapsed, model.Query{Cost: q.Cost}.Cost, q.Objects)
	printTrace(res)
	if st.Count {
		fmt.Println("(count query)")
	}
	for _, row := range res.Rows {
		fmt.Printf("  objID=%d ra=%.4f dec=%.4f r=%.2f\n", row.ObjID, row.RA, row.Dec, row.R)
	}
	return nil
}

func runDemo(ctx context.Context, cl *client.Client, survey *catalog.Survey, n, workers int, start time.Time) error {
	if workers < 1 {
		workers = 1
	}
	// The first error cancels the shared context so the producer and
	// the in-flight queries abort instead of grinding through the
	// rest of the demo one timeout at a time.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		atCache atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	queries := make(chan model.Query)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queries {
				res, err := cl.Query(ctx, q)
				if err != nil {
					errOnce.Do(func() { firstEr = err; cancel() })
					continue
				}
				if res.Source == "cache" {
					atCache.Add(1)
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for i := 0; i < n && ctx.Err() == nil; i++ {
		pos := survey.SamplePosition(rng)
		ra, dec := pos.RADec()
		radius := 0.3 + rng.Float64()*2
		sql := fmt.Sprintf(
			"SELECT objID, ra, dec, r FROM PhotoObj WHERE CONTAINS(POINT(%.3f, %.3f), CIRCLE(%.3f, %.3f, %.3f))",
			ra, dec, ra, dec, radius)
		_, q, err := sqlmini.Compile(sql, survey)
		if err != nil {
			close(queries)
			wg.Wait()
			return err
		}
		q.Time = time.Since(start)
		queries <- *q
	}
	close(queries)
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	fmt.Printf("demo: %d queries via %d workers, %d answered at cache\n",
		n, workers, atCache.Load())
	return nil
}

// runScenario replays a named workload scenario against the live
// deployment: queries fan out over the worker pool and births publish
// through the router. Repository-side updates in the trace are skipped
// — updates originate at the repository, not at clients — and reported
// so the operator knows the replay is the read/birth half of the trace.
func runScenario(ctx context.Context, cl *client.Client, survey *catalog.Survey, name string, nQueries, nUpdates, workers int) error {
	sc, err := workload.Lookup(name)
	if err != nil {
		return err
	}
	events, err := sc.Events(survey, workload.Options{
		Seed: survey.Config().Seed, Queries: nQueries, Updates: nUpdates,
	})
	if err != nil {
		return err
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		atCache atomic.Int64
		sent    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	queries := make(chan *model.Query, 4*workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queries {
				res, err := cl.Query(ctx, *q)
				if err != nil {
					errOnce.Do(func() { firstEr = err; cancel() })
					continue
				}
				sent.Add(1)
				if res.Source == "cache" {
					atCache.Add(1)
				}
			}
		}()
	}
	var births, skippedUpdates int
	start := time.Now()
	for i := range events {
		if ctx.Err() != nil {
			break
		}
		switch ev := &events[i]; ev.Kind {
		case model.EventQuery:
			queries <- ev.Query
		case model.EventUpdate:
			skippedUpdates++
		case model.EventBirth:
			if _, err := cl.AddObjects(ctx, []model.Birth{*ev.Birth}); err != nil {
				errOnce.Do(func() { firstEr = err; cancel() })
			} else {
				births++
			}
		}
	}
	close(queries)
	wg.Wait()
	if firstEr != nil {
		return fmt.Errorf("scenario %s: %w", name, firstEr)
	}
	elapsed := time.Since(start)
	fmt.Printf("scenario %s: %d queries via %d workers in %v (%.0f q/s), %d answered at cache (%.1f%%), %d births published, %d repository-side updates skipped\n",
		name, sent.Load(), workers, elapsed.Round(time.Millisecond),
		float64(sent.Load())/elapsed.Seconds(), atCache.Load(),
		100*float64(atCache.Load())/float64(max(sent.Load(), 1)),
		births, skippedUpdates)
	return nil
}

// printLatency reports the client-observed latency quantiles collected
// by the query observer during -demo or -scenario runs.
func printLatency(h *obs.Histogram) {
	if h == nil || h.Count() == 0 {
		return
	}
	fmt.Printf("client latency: p50=%s p90=%s p99=%s (%d samples)\n",
		quantileDur(h, 0.50), quantileDur(h, 0.90),
		quantileDur(h, 0.99), h.Count())
}
