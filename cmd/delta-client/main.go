// Command delta-client submits queries to a Delta deployment. It speaks
// the astronomy SQL dialect:
//
//	delta-client -cache 127.0.0.1:7708 \
//	  -sql "SELECT ra, dec FROM PhotoObj WHERE CONTAINS(POINT(180,0), CIRCLE(180,0,1)) WITH STALENESS '10m'"
//
// or drives a random demo workload with -demo N (optionally fanned out
// over -workers concurrent submitters), and prints the cache's
// statistics with -stats (a router's with a per-shard table first).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
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
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "delta-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("delta-client", flag.ContinueOnError)
	var (
		cacheAddr = fs.String("cache", "127.0.0.1:7708", "cache address")
		sql       = fs.String("sql", "", "SQL query to run")
		demo      = fs.Int("demo", 0, "run N random demo queries")
		workers   = fs.Int("workers", 1, "concurrent submitters for -demo")
		pool      = fs.Int("pool", 1, "connections in the session pool")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request timeout")
		stats     = fs.Bool("stats", false, "print cache statistics (a router's with a per-shard table)")
		resize    = fs.String("resize", "", "resize the cluster live to this comma-separated shard address list (routers only)")
		rebStatus = fs.Bool("rebalance-status", false, "print the router's rebalance progress view")
		grow      = fs.Int("grow", 0, "publish N new data objects into the deployment, numbered after the universe the client fetched")
		region    = fs.String("region", "", "query a sky region \"ra,dec,radiusDeg\" resolved server-side (the client fetches no universe)")
		trace     = fs.Bool("trace", false, "stamp queries with a trace ID and print the per-hop fan-out tree (router scatter, shard fragments, repository work)")
		scenario  = fs.String("scenario", "", "replay a named workload scenario against the deployment (see -list-scenarios; fanned out over -workers)")
		scnQ      = fs.Int("scenario-queries", 0, "query count for -scenario (0 = the scenario's default)")
		scnU      = fs.Int("scenario-updates", 0, "update count for -scenario (0 = the scenario's default; repository-side updates are skipped by the client)")
		listScens = fs.Bool("list-scenarios", false, "list the named workload scenarios and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()

	if *listScens {
		for _, sc := range workload.Scenarios() {
			fmt.Printf("%-18s %s\n", sc.Name(), sc.Description())
		}
		return nil
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
			"client_query_seconds", "Client-observed query latency.")
		opts = append(opts, client.WithQueryObserver(demoLat.Observe))
	}
	cl, err := client.Dial(*cacheAddr, opts...)
	if err != nil {
		return err
	}
	defer cl.Close()

	// Only -sql, -demo, -scenario and -grow need the universe.
	var survey *catalog.Survey
	if *sql != "" || *demo > 0 || *scenario != "" || *grow > 0 {
		if survey, err = cl.Survey(ctx); err != nil {
			return err
		}
	}
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
		if err := runDemo(ctx, os.Stdout, cl, survey, *demo, *workers, start); err != nil {
			return err
		}
		printLatency(demoLat)
	case *scenario != "":
		if _, err := runScenario(ctx, cl, survey, *scenario, *scnQ, *scnU, *workers); err != nil {
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
		if err := runGrow(ctx, cl, survey, *grow, start); err != nil {
			return err
		}
	case *stats || *rebStatus:
		// handled below
	default:
		fs.Usage()
		return fmt.Errorf("one of -sql, -region, -demo, -scenario, -list-scenarios, -stats, -resize, -rebalance-status, -grow is required")
	}

	if *stats || *demo > 0 {
		st, err := cl.Stats(ctx)
		if err != nil {
			return err
		}
		printStats(os.Stdout, st)
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

// printShards renders the per-shard table of a router's stats answer:
// a row for each delta_shard_up sample, filled from that shard's
// {shard="i"} samples, then a hit-rate spread summary (an unbalanced
// spread is the first sign one shard's working set outgrew its cache).
// It reports whether st had any shard.
func printShards(w io.Writer, st *netproto.StatsMsg) bool {
	type shard struct {
		index, addr string
		up          bool
	}
	var shards []shard
	degraded := ""
	for _, m := range st.Metrics {
		sh := shard{up: m.Value == 1}
		if _, err := fmt.Sscanf(m.Name, "delta_shard_up{shard=%q,addr=%q}", &sh.index, &sh.addr); err == nil {
			shards = append(shards, sh)
			if !sh.up {
				degraded = " DEGRADED"
			}
		}
	}
	if len(shards) == 0 {
		return false
	}
	fmt.Fprintf(w, "cluster: %d shards%s\n", len(shards), degraded)
	fmt.Fprintf(w, "  %-5s %-21s %9s %9s %8s %8s %6s %7s %10s\n",
		"shard", "addr", "queries", "hit-rate", "cached", "shipped", "born", "mig-in", "traffic")
	var rates []float64
	for _, sh := range shards {
		if !sh.up {
			fmt.Fprintf(w, "  %-5s %-21s DOWN\n", sh.index, sh.addr)
			continue
		}
		metric := func(name string) float64 { return st.Metric(name + `{shard="` + sh.index + `"}`) }
		queries := metric("delta_queries_total")
		var rate float64
		if queries > 0 {
			rate = metric("delta_queries_at_cache_total") / queries
		}
		rates = append(rates, rate)
		traffic := cost.Bytes(metric("delta_ledger_query_ship_bytes_total") +
			metric("delta_ledger_update_ship_bytes_total") + metric("delta_ledger_object_load_bytes_total"))
		fmt.Fprintf(w, "  %-5s %-21s %9.0f %8.1f%% %8.0f %8.0f %6.0f %7.0f %10v\n",
			sh.index, sh.addr, queries, rate*100, metric("delta_cached_objects"),
			metric("delta_queries_shipped_total"), metric("delta_objects_born_total"),
			metric("delta_migrated_in_total"), traffic)
	}
	if len(rates) > 0 {
		var sum float64
		for _, r := range rates {
			sum += r
		}
		fmt.Fprintf(w, "  hit-rate across %d live shards: min=%.1f%% mean=%.1f%% max=%.1f%%\n",
			len(rates), slices.Min(rates)*100, sum/float64(len(rates))*100, slices.Max(rates)*100)
	}
	return true
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

// printStats renders a node's stats answer: a router's per-shard table
// first, then its policy, its traffic ledger, one line per unlabelled
// counter and gauge sample, and its residents.
func printStats(w io.Writer, st *netproto.StatsMsg) {
	if printShards(w, st) {
		fmt.Fprintln(w, "aggregate:")
	}
	fmt.Fprintf(w, "policy=%s\n", st.Policy)
	fmt.Fprintf(w, "traffic: query-ship=%v update-ship=%v loads=%v total=%v\n",
		st.Ledger.QueryShip, st.Ledger.UpdateShip, st.Ledger.ObjectLoad, st.Ledger.Total())
	for _, m := range st.Metrics {
		if !strings.Contains(m.Name, "{") {
			fmt.Fprintf(w, "%s %s\n", m.Name, strconv.FormatFloat(m.Value, 'f', -1, 64))
		}
	}
	fmt.Fprintf(w, "cached objects: %v\n", st.Cached)
}

// runGrow publishes n new objects after those survey, the fetched
// universe, holds. Their positions and sizes are drawn from the
// universe's seed and size, so two growers over the same universe
// publish the same births, which the repository ingests once.
func runGrow(ctx context.Context, cl *client.Client, survey *catalog.Survey, n int, start time.Time) error {
	rng := rand.New(rand.NewSource(survey.Config().Seed + int64(survey.NextID())))
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
// cache or router maps the cap to B(q) from its survey's HTM cover, so
// this path needs no local survey mirror at all.
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

// fanOut submits the queries produce sends over workers concurrent
// submitters and counts the answers, and those answered at the cache.
// The first failure, a query's or produce's own, cancels the shared
// context, so produce (which watches it) and the in-flight queries stop
// instead of grinding through the rest one timeout at a time.
func fanOut(ctx context.Context, cl *client.Client, workers int,
	produce func(ctx context.Context, send func(model.Query)) error) (answered, atCache int64, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		answers, hits atomic.Int64
		wg            sync.WaitGroup
		errOnce       sync.Once
		firstErr      error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err; cancel() }) }
	workers = max(workers, 1)
	queries := make(chan model.Query)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queries {
				res, err := cl.Query(ctx, q)
				if err != nil {
					fail(err)
					continue
				}
				answers.Add(1)
				if res.Source == "cache" {
					hits.Add(1)
				}
			}
		}()
	}
	if err := produce(ctx, func(q model.Query) { queries <- q }); err != nil {
		fail(err)
	}
	close(queries)
	wg.Wait()
	return answers.Load(), hits.Load(), firstErr
}

// runDemo submits n random cone queries, each compiled from SQL.
func runDemo(ctx context.Context, w io.Writer, cl *client.Client, survey *catalog.Survey, n, workers int, start time.Time) error {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	answered, atCache, err := fanOut(ctx, cl, workers, func(ctx context.Context, send func(model.Query)) error {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			pos := survey.SamplePosition(rng)
			ra, dec := pos.RADec()
			radius := 0.3 + rng.Float64()*2
			sql := fmt.Sprintf(
				"SELECT objID, ra, dec, r FROM PhotoObj WHERE CONTAINS(POINT(%.3f, %.3f), CIRCLE(%.3f, %.3f, %.3f))",
				ra, dec, ra, dec, radius)
			_, q, err := sqlmini.Compile(sql, survey)
			if err != nil {
				return err
			}
			q.Time = time.Since(start)
			send(*q)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "demo: %d queries via %d workers, %d answered at cache\n",
		answered, max(workers, 1), atCache)
	return nil
}

// runScenario replays a named workload scenario against the live
// deployment: queries fan out over the worker pool and births publish
// through the router. Repository-side updates in the trace are skipped
// — updates originate at the repository, not at clients — and reported
// so the operator knows the replay is the read/birth half of the trace.
// The scenario's births grow survey, which must be the fetched
// universe, so they carry the IDs the repository ingests next. It
// returns how many births it published.
func runScenario(ctx context.Context, cl *client.Client, survey *catalog.Survey, name string, nQueries, nUpdates, workers int) (int, error) {
	sc, err := workload.Lookup(name)
	if err != nil {
		return 0, err
	}
	events, err := sc.Events(survey, workload.Options{
		Seed: survey.Config().Seed, Queries: nQueries, Updates: nUpdates,
	})
	if err != nil {
		return 0, err
	}
	var births, skippedUpdates int
	start := time.Now()
	sent, atCache, err := fanOut(ctx, cl, workers, func(ctx context.Context, send func(model.Query)) error {
		for i := 0; i < len(events) && ctx.Err() == nil; i++ {
			switch ev := &events[i]; ev.Kind {
			case model.EventQuery:
				send(*ev.Query)
			case model.EventUpdate:
				skippedUpdates++
			case model.EventBirth:
				if _, err := cl.AddObjects(ctx, []model.Birth{*ev.Birth}); err != nil {
					return err
				}
				births++
			}
		}
		return nil
	})
	if err != nil {
		return births, fmt.Errorf("scenario %s: %w", name, err)
	}
	elapsed := time.Since(start)
	fmt.Printf("scenario %s: %d queries via %d workers in %v (%.0f q/s), %d answered at cache (%.1f%%), %d births published, %d repository-side updates skipped\n",
		name, sent, max(workers, 1), elapsed.Round(time.Millisecond),
		float64(sent)/elapsed.Seconds(), atCache,
		100*float64(atCache)/float64(max(sent, 1)),
		births, skippedUpdates)
	return births, nil
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
