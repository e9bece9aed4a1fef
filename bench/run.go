package main

import (
	"cmp"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
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

// topology is one live deployment on loopback TCP, everything at the
// binaries' defaults: wire v3, netproto.DefaultScale, no simulated
// execution delay, obs on, router result cache on, one replica.
type topology struct {
	repo    *server.Repository
	cache   *cache.Middleware     // paper-trace
	lc      *cluster.LocalCluster // the cluster workloads
	clients []*client.Client
	// policies holds the timing decorators of a traced repetition, one
	// per cache node, indexed by shard.
	policies []*timedPolicy

	surveyS float64
	spawnS  float64
}

func spawn(in *input, clients int, traced bool) (*topology, error) {
	t := &topology{}
	start := time.Now()
	survey, err := catalog.NewSurvey(in.surveyCfg)
	if err != nil {
		return nil, err
	}
	t.surveyS = time.Since(start).Seconds()

	start = time.Now()
	t.repo, err = server.New(server.Config{Survey: survey, Scale: netproto.DefaultScale()})
	if err != nil {
		return nil, err
	}
	if err := t.repo.Start(); err != nil {
		return nil, err
	}
	policy := func(shard int) core.Policy {
		p := in.policy()
		if !traced {
			return p
		}
		tp := &timedPolicy{inner: p, shard: shard}
		t.policies = append(t.policies, tp)
		return tp
	}
	if in.cluster {
		t.lc, err = cluster.SpawnLocal(cluster.LocalConfig{
			RepoAddr:      t.repo.Addr(),
			Objects:       survey.Objects(),
			Shards:        2,
			Mode:          cluster.HTMAware,
			ShardCapacity: in.capacity,
			Policy:        policy,
			Scale:         netproto.DefaultScale(),
		})
	} else {
		t.cache, err = cache.New(cache.Config{
			RepoAddr: t.repo.Addr(),
			Policy:   policy(-1),
			Objects:  survey.Objects(),
			Capacity: in.capacity,
			Scale:    netproto.DefaultScale(),
		})
		if err == nil {
			err = t.cache.Start()
		}
	}
	if err != nil {
		t.close()
		return nil, err
	}
	var opts []client.Option
	if traced {
		opts = append(opts, client.WithTrace())
	}
	for i := 0; i < clients; i++ {
		cl, err := client.Dial(t.addr(), opts...)
		if err != nil {
			t.close()
			return nil, err
		}
		t.clients = append(t.clients, cl)
	}
	t.spawnS = time.Since(start).Seconds()
	return t, nil
}

// addr is the serving node clients talk to.
func (t *topology) addr() string {
	if t.lc != nil {
		return t.lc.Router.Addr()
	}
	return t.cache.Addr()
}

func (t *topology) router() *cluster.Router {
	if t.lc == nil {
		return nil
	}
	return t.lc.Router
}

func (t *topology) caches() []*cache.Middleware {
	if t.lc != nil {
		return t.lc.Shards
	}
	return []*cache.Middleware{t.cache}
}

func (t *topology) close() {
	for _, cl := range t.clients {
		cl.Close()
	}
	if t.lc != nil {
		t.lc.Close()
	}
	if t.cache != nil {
		t.cache.Close()
	}
	if t.repo != nil {
		t.repo.Close()
	}
}

// counters is what the bench reads from the layers' public counters at
// a pass boundary.
type counters struct {
	cacheStats []netproto.StatsMsg
	repoLedger cost.Snapshot
	repoStats  netproto.StatsMsg
	mem        runtime.MemStats
	cpu        time.Duration

	routerQueries, scattered, retried int64
	rcHits, coalesced, invalidations  int64
	births, grantBatches              int64
}

func (t *topology) snapshot() counters {
	c := counters{repoLedger: t.repo.Ledger(), repoStats: t.repo.Stats()}
	for _, mw := range t.caches() {
		c.cacheStats = append(c.cacheStats, mw.Stats())
	}
	if r := t.router(); r != nil {
		c.routerQueries, c.scattered = r.Queries(), r.Scattered()
		c.retried = r.Rerouted() + r.Failover() + r.Hedged() + r.Degraded()
		c.rcHits, c.coalesced = r.ResultCacheHits(), r.Coalesced()
		c.invalidations, c.births, c.grantBatches = r.ResultCacheInvalidations(), r.Births(), r.GrantBatches()
	}
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

// cacheLedger sums the cache-side ledgers: the paper's traffic metric.
func (c *counters) cacheLedger() cost.Snapshot {
	var sum cost.Snapshot
	for _, s := range c.cacheStats {
		sum.QueryShip += s.Ledger.QueryShip
		sum.UpdateShip += s.Ledger.UpdateShip
		sum.ObjectLoad += s.Ledger.ObjectLoad
	}
	return sum
}

// hop is one span the wire returned for a traced query, cut down to
// what the join reads. Its strings are interned and the hops of a
// worker sit in one array, so that a pass which keeps a quarter of a
// million of them costs the collector a handful of objects: kept as
// decoded, the spans slowed the traced pass by a fifth.
type hop struct {
	name, source, detail string
	shard, fragments     int
	elapsed              time.Duration
}

// queryRecord is the bench's own span around one Client.Query of a
// traced pass, with the hop spans the wire returned for it.
type queryRecord struct {
	id    model.QueryID
	start time.Duration // since the pass began
	dur   time.Duration
	hops  []hop
	// firstHop indexes the worker's hop array until the pass ends and
	// hops can point into it.
	firstHop, numHops int
}

// opRecord is the bench's span around one write of a traced pass.
type opRecord struct {
	id    int64
	start time.Duration
	dur   time.Duration
}

// passSlices is how many consecutive slices of its events a pass is
// timed in. On a shared two-core box a stall of some hundred
// milliseconds lands somewhere in most passes; slices let the
// repetitions of a workload be combined slice by slice (composite), so
// that a stall costs one slice of one repetition instead of skewing the
// repetition.
const passSlices = 32

// slice is the timing of one run of consecutive events of a pass.
type slice struct {
	wall time.Duration
	lats []time.Duration // of the queries dispatched in it, sorted
}

// pass is the outcome of replaying a run of events.
type pass struct {
	wall      time.Duration
	lats      []time.Duration // client-observed, sorted
	slices    []slice
	attempted int // queries + births
	failed    int
	hits      int
	queries   int
	births    int
	updates   int
	noCache   cost.Bytes // Σ ν(q)

	addObjects  time.Duration // Σ Client.AddObjects
	applyUpdate time.Duration // Σ Repository.ApplyUpdate
	firstErr    error

	// Traced passes only.
	records   []queryRecord
	updateOps []opRecord
	birthOps  []opRecord
}

// replay walks events in order as a closed loop: queries go to the
// client connections, one in flight each, and the replay thread applies
// updates and publishes births inline, so a slow system is offered less
// load. An open loop is the wrong generator for a two-core box: pacing
// at 8k events/s measured the Go timer (p50 740 µs against 50 µs closed,
// generator up to 150 ms late).
func (t *topology) replay(events []model.Event, traced bool) *pass {
	type worker struct {
		lats         [passSlices][]time.Duration
		failed, hits int
		records      []queryRecord
		hops         []hop
		interned     map[string]string
		firstErr     error
	}
	intern := func(w *worker, s string) string {
		if v, ok := w.interned[s]; ok {
			return v
		}
		if w.interned == nil {
			w.interned = map[string]string{}
		}
		w.interned[s] = s
		return s
	}
	ctx := context.Background()
	p := &pass{}
	workers := make([]worker, len(t.clients))
	type dispatch struct {
		q     *model.Query
		slice int
	}
	queries := make(chan dispatch)
	var wg sync.WaitGroup
	begin := time.Now()
	for i := range workers {
		wg.Add(1)
		go func(w *worker, cl *client.Client) {
			defer wg.Done()
			for d := range queries {
				q := d.q
				start := time.Now()
				res, err := cl.Query(ctx, *q)
				dur := time.Since(start)
				w.lats[d.slice] = append(w.lats[d.slice], dur)
				switch {
				case err != nil:
					w.failed++
					if w.firstErr == nil {
						w.firstErr = err
					}
					continue
				case res.Degraded || res.Logical != int64(q.Cost):
					w.failed++
					if w.firstErr == nil {
						w.firstErr = fmt.Errorf("query %d: degraded=%v logical=%d want %d",
							q.ID, res.Degraded, res.Logical, q.Cost)
					}
				case res.Source == "cache":
					w.hits++
				}
				if traced {
					w.records = append(w.records, queryRecord{
						id: q.ID, start: start.Sub(begin), dur: dur,
						firstHop: len(w.hops), numHops: len(res.Spans),
					})
					for _, s := range res.Spans {
						w.hops = append(w.hops, hop{
							name: intern(w, s.Name), source: intern(w, s.Source), detail: intern(w, s.Detail),
							shard: s.Shard, fragments: s.Fragments, elapsed: s.Elapsed,
						})
					}
				}
			}
		}(&workers[i], t.clients[i])
	}
	admin := t.clients[0]
	p.slices = make([]slice, passSlices)
	current, entered := 0, begin
	for i := range events {
		if k := i * passSlices / len(events); k != current {
			now := time.Now()
			p.slices[current].wall = now.Sub(entered)
			current, entered = k, now
		}
		switch ev := &events[i]; ev.Kind {
		case model.EventQuery:
			p.queries++
			p.noCache += ev.Query.Cost
			queries <- dispatch{ev.Query, current}
		case model.EventUpdate:
			p.updates++
			start := time.Now()
			t.repo.ApplyUpdate(*ev.Update)
			dur := time.Since(start)
			p.applyUpdate += dur
			if traced {
				p.updateOps = append(p.updateOps, opRecord{int64(ev.Update.ID), start.Sub(begin), dur})
			}
		case model.EventBirth:
			p.births++
			start := time.Now()
			n, err := admin.AddObjects(ctx, []model.Birth{*ev.Birth})
			dur := time.Since(start)
			p.addObjects += dur
			if traced {
				p.birthOps = append(p.birthOps, opRecord{int64(ev.Birth.Object.ID), start.Sub(begin), dur})
			}
			if err != nil || n != 1 {
				p.failed++
				if p.firstErr == nil {
					p.firstErr = fmt.Errorf("birth %d: accepted %d: %v", ev.Birth.Object.ID, n, err)
				}
			}
		}
	}
	close(queries)
	wg.Wait()
	end := time.Now()
	p.slices[current].wall = end.Sub(entered)
	p.wall = end.Sub(begin)
	p.attempted = p.queries + p.births
	for i := range workers {
		w := &workers[i]
		for k, lats := range w.lats {
			p.slices[k].lats = append(p.slices[k].lats, lats...)
		}
		p.failed += w.failed
		p.hits += w.hits
		for _, rec := range w.records {
			rec.hops = w.hops[rec.firstHop : rec.firstHop+rec.numHops]
			p.records = append(p.records, rec)
		}
		if p.firstErr == nil {
			p.firstErr = w.firstErr
		}
	}
	for k := range p.slices {
		slices.Sort(p.slices[k].lats)
		p.lats = append(p.lats, p.slices[k].lats...)
	}
	slices.Sort(p.lats)
	return p
}

// quantile reads a sorted sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(float64(len(sorted))*q), len(sorted)-1)]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timing is a pass's three timing metrics. Throughput is queries over
// the slices' total time. A latency percentile is taken per slice and
// averaged over the slices, weighted by their queries: pooled over the
// whole pass, the 95th percentile is whatever the two worst slices of
// 32 held, and moved half again as much from run to run as throughput
// did.
type timing struct {
	queriesPerS, p50us, p95us float64
}

// composite combines the timed passes of a workload's repetitions, all
// replays of the same events, into the timing of one pass: every
// slice's time and percentiles are the medians of what the repetitions
// measured for that slice. One pass is its own composite.
func composite(passes []*pass) timing {
	var (
		wall, p50, p95 float64
		queries        int
		walls          = make([]float64, len(passes))
		p50s           = make([]float64, len(passes))
		p95s           = make([]float64, len(passes))
	)
	for k := 0; k < passSlices; k++ {
		for i, p := range passes {
			sl := p.slices[k]
			walls[i] = sl.wall.Seconds()
			p50s[i] = micros(quantile(sl.lats, 0.50))
			p95s[i] = micros(quantile(sl.lats, 0.95))
		}
		slices.Sort(walls)
		slices.Sort(p50s)
		slices.Sort(p95s)
		n := len(passes[0].slices[k].lats)
		queries += n
		wall += medianOf(walls)
		p50 += float64(n) * medianOf(p50s)
		p95 += float64(n) * medianOf(p95s)
	}
	return timing{float64(queries) / wall, p50 / float64(queries), p95 / float64(queries)}
}

// repetition is one workload run on a fresh topology.
type repetition struct {
	endToEnd map[string]float64
	// timed is the timed pass, kept for composite.
	timed     *pass
	perLayer  map[string]float64 // traced repetitions only
	attempted int
	failed    int
	// problems lists the correctness checks that failed.
	problems []string
}

func (r *repetition) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// runRepetition builds the workload's inputs from the seed, stands up a
// fresh topology, warms it, replays the timed pass and checks it. A
// traced repetition also records spans, runs the probes and fills
// perLayer; untracedQPS is the throughput the tracing overhead is held
// against.
func runRepetition(w *workloadSpec, opts options, traced bool, untracedQPS float64) (*repetition, error) {
	setupStart := time.Now()
	in, err := w.build(opts.seed, opts.scale)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", w.name, err)
	}
	t, err := spawn(in, w.clients(), traced)
	if err != nil {
		return nil, fmt.Errorf("%s: spawn: %w", w.name, err)
	}
	defer t.close()
	warm := t.replay(in.events[:in.warm], false)
	// Start every timed pass from a collected heap, so what the
	// generator left behind is not this pass's garbage.
	runtime.GC()
	setupS := time.Since(setupStart).Seconds()

	for _, tp := range t.policies {
		tp.start()
	}
	timed := in.events[in.warm:]
	before := t.snapshot()
	p := t.replay(timed, traced)
	after := t.snapshot()

	rep := &repetition{timed: p, attempted: p.attempted, failed: p.failed + warm.failed}
	ledger := after.cacheLedger()
	base := before.cacheLedger()
	moved := ledger.Total() - base.Total()
	alone := composite([]*pass{p})
	rep.endToEnd = map[string]float64{
		"queries_per_s": alone.queriesPerS,
		"query_p50_us":  alone.p50us,
		"query_p95_us":  alone.p95us,
		"hit_rate":      float64(p.hits) / float64(p.queries),
		"traffic_saved": 1 - float64(moved)/float64(p.noCache),
		"ok_share":      1 - float64(p.failed)/float64(p.attempted),
		"setup_s":       setupS,
	}

	rep.check(rep.failed == 0, "%d of %d operations failed, first: %v", rep.failed, p.attempted+warm.attempted, cmp.Or(p.firstErr, warm.firstErr))
	if r := t.router(); r != nil {
		rep.check(after.routerQueries == int64(p.queries+warm.queries),
			"router counted %d queries, %d sent", after.routerQueries, p.queries+warm.queries)
		rep.check(after.births == int64(p.births+warm.births),
			"router adopted %d births, trace has %d (was the repository built from a pre-grown survey?)",
			after.births, p.births+warm.births)
	}
	var (
		perLayer map[string]float64
		trace    *traceFile
	)
	if traced {
		perLayer, trace, err = t.perLayer(w, in, opts, p, &before, &after, rep)
		if err != nil {
			return nil, err
		}
		perLayer["workload.generate_s"] = in.generateS
		perLayer["catalog.new_survey_s"] = t.surveyS
		perLayer["cluster.spawn_s"] = t.spawnS
		perLayer["obs.trace_overhead_share"] = 1 - rep.endToEnd["queries_per_s"]/untracedQPS
		rep.perLayer = perLayer
	}
	// The probes of a traced repetition move bytes too; the two sides
	// of the wire must agree on all of them.
	end := t.snapshot()
	repoL, cacheL := end.repoLedger, end.cacheLedger()
	mismatch := abs(repoL.QueryShip-cacheL.QueryShip) + abs(repoL.UpdateShip-cacheL.UpdateShip) + abs(repoL.ObjectLoad-cacheL.ObjectLoad)
	rep.check(mismatch == 0, "ledgers disagree: repository %+v, caches %+v", repoL, cacheL)
	dropped := end.repoStats.DroppedInvalidations
	for _, s := range end.cacheStats {
		dropped += s.DroppedInvalidations
	}
	rep.check(dropped == 0, "%d invalidation notices dropped", dropped)
	if traced {
		perLayer["cache.dropped_invalidations"] = float64(dropped)
		perLayer["server.ledger_mismatch_bytes"] = float64(mismatch)
		if opts.out != "" {
			if err := writeJSON(filepath.Join(opts.out, "trace-"+w.name+".json"), trace, false); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

func abs(b cost.Bytes) cost.Bytes {
	if b < 0 {
		return -b
	}
	return b
}
