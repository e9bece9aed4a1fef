package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// policyCall is one timed call into a decision policy.
type policyCall struct {
	kind   string // "query", "update" or "birth"
	id     int64  // query or update ID; first object ID of a birth batch
	start  time.Duration
	dur    time.Duration
	loads  int
	evicts int
}

// timedPolicy decorates a cache node's policy and times every call the
// node makes into it. The node calls under its shard-wide mutex, so the
// sum of these durations is that lock's hold time for decisions.
type timedPolicy struct {
	inner core.Policy
	shard int // -1 for the single cache

	mu    sync.Mutex
	begin time.Time // zero while not recording (warm-up, probes)
	calls []policyCall
}

func (p *timedPolicy) start() {
	p.mu.Lock()
	p.begin = time.Now()
	p.mu.Unlock()
}

// take stops recording and returns what was recorded.
func (p *timedPolicy) take() []policyCall {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.begin = time.Time{}
	return p.calls
}

func (p *timedPolicy) record(kind string, id int64, start time.Time, d *core.Decision) {
	dur := time.Since(start)
	p.mu.Lock()
	if !p.begin.IsZero() {
		p.calls = append(p.calls, policyCall{
			kind: kind, id: id, start: start.Sub(p.begin), dur: dur,
			loads: len(d.Load), evicts: len(d.Evict),
		})
	}
	p.mu.Unlock()
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Init(objects []model.Object, capacity cost.Bytes) error {
	return p.inner.Init(objects, capacity)
}

func (p *timedPolicy) OnQuery(q *model.Query) (core.Decision, error) {
	start := time.Now()
	d, err := p.inner.OnQuery(q)
	p.record("query", int64(q.ID), start, &d)
	return d, err
}

func (p *timedPolicy) OnUpdate(u *model.Update) (core.Decision, error) {
	start := time.Now()
	d, err := p.inner.OnUpdate(u)
	p.record("update", int64(u.ID), start, &d)
	return d, err
}

// AddObjects forwards core.Grower, which cache nodes need for births.
func (p *timedPolicy) AddObjects(objs []model.Object) (core.Decision, error) {
	g, ok := p.inner.(core.Grower)
	if !ok {
		return core.Decision{}, fmt.Errorf("policy %s cannot grow", p.inner.Name())
	}
	start := time.Now()
	d, err := g.AddObjects(objs)
	var first int64
	if len(objs) > 0 {
		first = int64(objs[0].ID)
	}
	p.record("birth", first, start, &d)
	return d, err
}

// Warm forwards core.Warmable, so a decorated node reshards like a bare
// one.
func (p *timedPolicy) Warm(ids []model.ObjectID) ([]model.ObjectID, error) {
	w, ok := p.inner.(core.Warmable)
	if !ok {
		return nil, nil
	}
	return w.Warm(ids)
}

// traceHop is one hop span of a query as written to the trace file.
type traceHop struct {
	Name      string  `json:"name"`
	Shard     int     `json:"shard"`
	Micros    float64 `json:"us"`
	Fragments int     `json:"fragments,omitempty"`
	Source    string  `json:"source,omitempty"`
	Detail    string  `json:"detail,omitempty"`
}

// traceQuery is one query of the trace file: the bench's client span,
// the hop spans the wire returned (parents before children: a router
// span, then each fragment followed by the repository span it caused),
// and the policy decisions its fragments waited for.
type traceQuery struct {
	ID      int64         `json:"q"`
	StartUs float64       `json:"start_us"`
	Client  float64       `json:"client_us"`
	Hops    []traceHop    `json:"hops"`
	Policy  []tracePolicy `json:"policy,omitempty"`
}

type tracePolicy struct {
	Kind    string  `json:"kind,omitempty"`
	ID      int64   `json:"id,omitempty"`
	Shard   int     `json:"shard"`
	StartUs float64 `json:"start_us,omitempty"`
	Micros  float64 `json:"us"`
	Loads   int     `json:"loads,omitempty"`
	Evicts  int     `json:"evicts,omitempty"`
}

type traceOp struct {
	ID      int64   `json:"id"`
	StartUs float64 `json:"start_us"`
	Micros  float64 `json:"us"`
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	// SelfTimePerQueryUs attributes the mean client-observed query time
	// to layers along each query's blocking path; the parts sum to
	// ClientQueryMeanUs up to clamping.
	SelfTimePerQueryUs map[string]float64 `json:"self_time_per_query_us"`
	ClientQueryMeanUs  float64            `json:"client_query_mean_us"`
	PerLayer           map[string]float64 `json:"per_layer"`
	Queries            []traceQuery       `json:"queries"`
	// PolicyWrites are the OnUpdate and AddObjects calls, which belong
	// to no query.
	PolicyWrites []tracePolicy `json:"policy_writes"`
	ApplyUpdate  []traceOp     `json:"apply_update"`
	AddObjects   []traceOp     `json:"add_objects"`
}

type callKey struct {
	id    int64
	shard int
}

func meanMicros(sum time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return micros(sum) / float64(n)
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// perLayer turns a traced pass into the per-layer metrics and the trace
// file: it joins the bench's spans, the wire's hop spans and the policy
// decorator's calls by query ID, reads the counter deltas across the
// pass, and runs the probes.
func (t *topology) perLayer(w *workloadSpec, in *input, opts options, p *pass, before, after *counters, rep *repetition) (map[string]float64, *traceFile, error) {
	m := map[string]float64{}
	tf := &traceFile{Workload: w.name, Seed: opts.seed, Scale: opts.scale, PerLayer: m}
	decisions := t.policyMetrics(p, m, tf)
	spanMetrics(p, decisions, m, tf, rep)
	counterMetrics(p, before, after, m)
	tf.ApplyUpdate, tf.AddObjects = traceOps(p.updateOps), traceOps(p.birthOps)
	if err := t.probes(w, in, opts, m, rep); err != nil {
		return nil, nil, err
	}
	return m, tf, nil
}

// policyMetrics reads what the timing decorators recorded: the core
// layer's metrics, and each query decision keyed for the span join.
func (t *topology) policyMetrics(p *pass, m map[string]float64, tf *traceFile) map[callKey]policyCall {
	decisions := map[callKey]policyCall{}
	var (
		onQuery              []time.Duration
		onQuerySum, onUpdate time.Duration
		updates              int
		busiest              time.Duration
		loads, evictions     int
	)
	for _, tp := range t.policies {
		var busy time.Duration
		for _, c := range tp.take() {
			busy += c.dur
			loads += c.loads
			evictions += c.evicts
			if c.kind == "query" {
				decisions[callKey{c.id, tp.shard}] = c
				onQuery = append(onQuery, c.dur)
				onQuerySum += c.dur
				continue
			}
			if c.kind == "update" {
				onUpdate += c.dur
				updates++
			}
			tf.PolicyWrites = append(tf.PolicyWrites, tracePolicy{
				Kind: c.kind, ID: c.id, Shard: tp.shard,
				StartUs: micros(c.start), Micros: micros(c.dur), Loads: c.loads, Evicts: c.evicts,
			})
		}
		busiest = max(busiest, busy)
	}
	slices.Sort(onQuery)
	m["core.on_query_us"] = meanMicros(onQuerySum, len(onQuery))
	m["core.on_query_p99_us"] = micros(quantile(onQuery, 0.99))
	m["core.on_update_us"] = meanMicros(onUpdate, updates)
	m["core.busy_share"] = busiest.Seconds() / p.wall.Seconds()
	m["core.loads"] = float64(loads)
	m["core.evictions"] = float64(evictions)
	return decisions
}

// spanMetrics joins each traced query's spans into a tree and
// attributes its time. Self time is a span minus the part its children
// cover; a router waits for all its fragments, so the slowest one is
// the part that blocks it.
func spanMetrics(p *pass, decisions map[callKey]policyCall, m map[string]float64, tf *traceFile, rep *repetition) {
	var (
		clientSum, clientSelf      time.Duration
		routerSum, routerSelf      time.Duration
		routed, reached, fragments int
		fragSum, fragSelf          time.Duration
		fragSpans                  int
		repoSum                    time.Duration
		repoSpans                  int
		loadSum                    time.Duration
		loadSpans                  int
		unjoined                   int
		// Along each query's blocking path.
		pathFragSelf, pathDecide, pathRepo time.Duration
	)
	tf.Queries = make([]traceQuery, 0, len(p.records))
	for i := range p.records {
		rec := &p.records[i]
		tq := traceQuery{ID: int64(rec.id), StartUs: micros(rec.start), Client: micros(rec.dur)}
		clientSum += rec.dur
		if len(rec.hops) == 0 {
			unjoined++
			tf.Queries = append(tf.Queries, tq)
			continue
		}
		clientSelf += max(rec.dur-rec.hops[0].elapsed, 0)
		// Walk the flattened tree: an optional router span, then
		// fragment (or cache) spans each followed by the repository
		// spans it caused.
		var slowest struct{ span, self, decide, repo time.Duration }
		for j, s := range rec.hops {
			tq.Hops = append(tq.Hops, traceHop{
				Name: s.name, Shard: s.shard, Micros: micros(s.elapsed),
				Fragments: s.fragments, Source: s.source, Detail: s.detail,
			})
			switch s.name {
			case "router":
				routed++
				routerSum += s.elapsed
				if s.fragments > 0 {
					reached++
					fragments += s.fragments
				}
			case "fragment", "cache":
				var repo time.Duration
				for k := j + 1; k < len(rec.hops) && rec.hops[k].name == "repository"; k++ {
					repo += rec.hops[k].elapsed
				}
				d, ok := decisions[callKey{int64(rec.id), s.shard}]
				if !ok {
					unjoined++
				}
				tq.Policy = append(tq.Policy, tracePolicy{
					Shard: s.shard, Micros: micros(d.dur), Loads: d.loads, Evicts: d.evicts,
				})
				self := max(s.elapsed-d.dur-repo, 0)
				fragSpans++
				fragSum += s.elapsed
				fragSelf += self
				if d.loads > 0 {
					// The wire carries no load span; what a loading
					// fragment spent beyond deciding and shipping is the
					// wait for its loads.
					loadSpans++
					loadSum += self
				}
				if s.elapsed >= slowest.span {
					slowest.span, slowest.self, slowest.decide, slowest.repo = s.elapsed, self, d.dur, repo
				}
			case "repository":
				repoSpans++
				repoSum += s.elapsed
			}
		}
		if rec.hops[0].name == "router" {
			routerSelf += max(rec.hops[0].elapsed-slowest.span, 0)
		}
		pathFragSelf += slowest.self
		pathDecide += slowest.decide
		pathRepo += slowest.repo
		tf.Queries = append(tf.Queries, tq)
	}
	n := len(p.records)
	rep.check(unjoined == 0, "%d spans of %d traced queries could not be joined", unjoined, n)
	tf.SelfTimePerQueryUs = map[string]float64{
		"client":  meanMicros(clientSelf, n),
		"cluster": meanMicros(routerSelf, n),
		"cache":   meanMicros(pathFragSelf, n),
		"core":    meanMicros(pathDecide, n),
		"server":  meanMicros(pathRepo, n),
	}
	var selfSum float64
	for _, v := range tf.SelfTimePerQueryUs {
		selfSum += v
	}
	tf.ClientQueryMeanUs = meanMicros(clientSum, n)
	rep.check(selfSum >= 0.9*tf.ClientQueryMeanUs && selfSum <= 1.1*tf.ClientQueryMeanUs,
		"layer self times sum to %.1f µs, mean client query is %.1f µs", selfSum, tf.ClientQueryMeanUs)

	m["client.query_p99_us"] = micros(quantile(p.lats, 0.99))
	m["client.self_us"] = tf.SelfTimePerQueryUs["client"]
	m["client.add_objects_us"] = meanMicros(p.addObjects, p.births)
	m["client.failed_share"] = share(int64(p.failed), int64(p.attempted))
	m["cluster.router_us"] = meanMicros(routerSum, routed)
	m["cluster.router_self_us"] = meanMicros(routerSelf, routed)
	m["cluster.fragments_per_query"] = share(int64(fragments), int64(reached))
	m["cache.fragment_us"] = meanMicros(fragSum, fragSpans)
	m["cache.fragment_self_us"] = meanMicros(fragSelf, fragSpans)
	m["cache.load_us"] = meanMicros(loadSum, loadSpans)
	m["server.exec_us"] = meanMicros(repoSum, repoSpans)
	m["server.apply_update_us"] = meanMicros(p.applyUpdate, p.updates)
}

// counterMetrics reads the layers' public counters as deltas across the
// timed pass.
func counterMetrics(p *pass, before, after *counters, m map[string]float64) {
	routerQueries := after.routerQueries - before.routerQueries
	m["cluster.result_cache_hit_share"] = share(after.rcHits-before.rcHits, routerQueries)
	m["cluster.coalesced_share"] = share(after.coalesced-before.coalesced, routerQueries)
	m["cluster.scattered_share"] = share(after.scattered-before.scattered, routerQueries)
	m["cluster.retried_share"] = share(after.retried-before.retried, routerQueries)
	m["cluster.invalidations_per_update"] = share(after.invalidations-before.invalidations, int64(p.updates))
	m["cluster.births_per_grant_batch"] = share(after.births-before.births, after.grantBatches-before.grantBatches)
	var shardQueries, atCache, deduped, busiestShard int64
	for i := range after.cacheStats {
		q := after.cacheStats[i].Queries - before.cacheStats[i].Queries
		shardQueries += q
		busiestShard = max(busiestShard, q)
		atCache += after.cacheStats[i].AtCache - before.cacheStats[i].AtCache
		deduped += after.cacheStats[i].DedupedLoads - before.cacheStats[i].DedupedLoads
	}
	m["cache.at_cache_share"] = share(atCache, shardQueries)
	m["cache.deduped_loads"] = float64(deduped)
	m["cache.shard_imbalance"] = share(busiestShard*int64(len(after.cacheStats)), shardQueries)
	moved, base := after.cacheLedger(), before.cacheLedger()
	m["server.bytes.query_ship"] = float64(moved.QueryShip - base.QueryShip)
	m["server.bytes.update_ship"] = float64(moved.UpdateShip - base.UpdateShip)
	m["server.bytes.object_load"] = float64(moved.ObjectLoad - base.ObjectLoad)
	m["server.traffic_ratio"] = float64(moved.Total()-base.Total()) / float64(p.noCache)

	queries := float64(p.queries)
	m["runtime.cpu_us_per_query"] = micros(after.cpu-before.cpu) / queries
	m["runtime.allocs_per_query"] = float64(after.mem.Mallocs-before.mem.Mallocs) / queries
	m["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	m["runtime.live_heap_mb"] = float64(live.HeapAlloc) / (1 << 20)
}

func traceOps(ops []opRecord) []traceOp {
	out := make([]traceOp, len(ops))
	for i, op := range ops {
		out[i] = traceOp{ID: op.id, StartUs: micros(op.start), Micros: micros(op.dur)}
	}
	return out
}

func writeJSON(path string, v any, indent bool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var (
		data []byte
		err  error
	)
	if indent {
		data, err = json.MarshalIndent(v, "", "  ")
	} else {
		data, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
