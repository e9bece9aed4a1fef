// Package cluster scales the Delta middleware out: a routing tier that
// fronts N independent cache shards, each a full cache.Middleware
// owning a subset of the data objects. The router's decisions are
// internal/core's — placement (core.Ownership), the split of a query
// into fragments and of a failed fragment's retry (Ownership.Split),
// and the result cache (core.ResultCache) — so a simulator can run them
// with no sockets. This package is their I/O shell: shard and
// repository sessions, the attempt loop's goroutines and hedge timers,
// the codec, region covers, and the resize and birth choreography.
//
// The router scatters multi-object queries to the owning shards over
// multiplexed netproto sessions, gathers and merges the fragments, and
// degrades gracefully when a shard dies: surviving fragments are
// returned with a Degraded flag instead of failing the query. Stats
// aggregate the same way, so a client sees one cache regardless of the
// shard count.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/htm"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/node"
	"github.com/deltacache/delta/internal/obs"
)

// Config parameterizes a Router.
type Config struct {
	// Addr is the client-facing listen address.
	Addr string
	// Shards lists the client endpoints of the cache shards, indexed
	// by shard number; the order must match the Ownership assignment.
	Shards []string
	// Ownership maps objects to shard indices; its shard count must
	// equal len(Shards). Its objects are the survey every shard builds
	// for itself: reshards ship metadata only for births adopted later.
	Ownership *core.Ownership
	// RepoAddr is the repository's address (required). The router
	// follows its invalidation stream, so births (MsgObjectBirth) become
	// routable live and update notices evict cached results, and it
	// forwards clients' births and universe requests there.
	RepoAddr string
	// Regions, when set, is the survey client sky-region queries
	// resolve against: a query arriving with a SkyRegion instead of an
	// object list is resolved at the router, memoized through a bounded
	// cover cache whose hit/miss counters are /metrics samples, and
	// every adopted birth grows the survey, so covers include newborns.
	// Nil rejects region queries.
	Regions *catalog.Survey
	// Hedge enables hedged reads: when a fragment's primary shard has
	// not answered within the hedge delay, the fragment is re-scattered
	// to the objects' next replicas and the first complete answer wins
	// (the loser is cancelled). Only effective with a replicated
	// ownership (K ≥ 2); a fragment whose objects do not all have
	// another holder is not hedged.
	Hedge bool
	// HedgeDelay pins how long the primary may lag before the hedge
	// fires. Zero derives the delay from the p99 of observed fragment
	// round trips (so only true stragglers hedge), with a small fixed
	// default while the latency histogram is cold.
	HedgeDelay time.Duration
	// ResultCacheSize bounds the router's invalidation-aware result
	// cache and in-flight query coalescer (entries, not bytes): repeated
	// or concurrent queries over the same object set are answered from
	// one scatter. Zero means core.DefaultResultCacheSize; negative
	// disables the cache and coalescer entirely.
	ResultCacheSize int
	// MetricsAddr, when set, serves the debug HTTP mux (/metrics,
	// /healthz, /debug/traces, /debug/pprof) on that address. The
	// router's /metrics holds only what the router counts; a scrape
	// sends no frame to any shard (the cluster aggregate is MsgStats).
	MetricsAddr string
	// Logf logs events; nil silences.
	Logf func(format string, args ...any)
}

// Router is a running cluster routing tier. To clients it looks
// exactly like a single cache.Middleware: it accepts the same hellos,
// answers MsgQuery and MsgStats (the cluster aggregate, with each
// shard's samples labelled), and additionally serves the admin frames
// (MsgAdminResize, MsgRebalanceStatus) that drive live resizes.
//
// Routing state is an immutable epoch snapshot swapped atomically, so
// queries never observe a half-updated topology: a resize publishes
// transition snapshots (with double-routing for moving objects) and
// then the final one.
//
// The embedded runtime provides Start, Addr, DebugAddr and Close. Close
// severs live client connections but leaves the shards running (they
// are not the router's to stop); in-flight scatters fail promptly,
// because closing the shard sessions fails their pending round trips.
type Router struct {
	*node.Node
	cfg Config

	// surveyed counts the objects of the ownership the router started
	// with; those at later universe positions are births (reshardMeta).
	surveyed int

	// routing is the current epoch snapshot; queries load it once and
	// route entirely against that view.
	routing atomic.Pointer[routing]

	// linksMu guards links, the registry of every shard session ever
	// dialed (keyed by address), and linksClosed. Epoch snapshots
	// reference entries; Close tears all of them down, and the closed
	// flag stops a concurrent resize from registering a fresh session
	// after that teardown.
	linksMu     sync.Mutex
	links       map[string]*shardLink
	linksClosed bool

	// resizeMu serializes resizes (one at a time, fail-fast); growMu
	// serializes routing-snapshot mutation between resizes and birth
	// adoption (blocking — a birth waits out a resize and vice versa,
	// so no snapshot store is lost to an interleaved writer); statusMu
	// guards the rebalance status snapshot.
	resizeMu sync.Mutex
	growMu   sync.Mutex
	statusMu sync.Mutex
	status   netproto.RebalanceStatusMsg

	// repo is the repository session backing live growth.
	repo *netproto.Session

	// covers resolves region queries against Regions; nil (every
	// method still callable) when Regions is.
	covers *htm.CoverCache

	// results is the invalidation-aware result cache + in-flight query
	// coalescer; nil when disabled (all uses are nil-safe).
	results *core.ResultCache[netproto.QueryResultMsg]

	// birthCh feeds the birth adoption worker, which drains whatever
	// announcements and publications have queued and adopts them as one
	// batch — one ownership extension, one grant frame per shard.
	birthCh chan birthReq

	// Event counters, registered on Reg at construction; their help
	// strings there say what each one counts.
	queries, scattered, degraded, rerouted, failover, hedged, births, grantBatches *obs.Counter

	routerLat *obs.Histogram // end-to-end scatter/gather latency
	fragLat   *obs.Histogram // per-fragment shard round-trip latency
}

// routing is one immutable routing epoch: the ownership map and the
// links of the holders a core.Fragment names — the shards in index
// order, then during a resize window the alternates, which alt maps
// each moving object to so a fragment failing on its primary can be
// double-routed instead of degraded.
type routing struct {
	epoch int
	own   *core.Ownership
	links []*shardLink
	alt   map[model.ObjectID]int
}

// holderAt returns the holder index of the link to addr, or -1 when this
// view has none.
func (rt *routing) holderAt(addr string) int {
	return slices.IndexFunc(rt.links, func(l *shardLink) bool { return l.addr == addr })
}

// shardLink is the router's session to one shard; immutable, so
// routing snapshots may read it concurrently.
type shardLink struct {
	addr string
	sess *netproto.Session
}

// NewRouter connects a router to its shards and installs the initial
// ownership on them: the widen reshard a resize runs, at epoch 0 with no
// warm lists, so a shard owns exactly what this router routes to it.
// Every shard must be dialable (after netproto.StartupDialRetry's grace
// for startup races) and must take the reshard; a shard whose metadata
// disagrees with the router's universe refuses it, and NewRouter fails.
func NewRouter(cfg Config) (*Router, error) {
	if err := checkShardAddrs(cfg.Shards); err != nil {
		return nil, err
	}
	if cfg.Ownership == nil {
		return nil, fmt.Errorf("cluster: router needs an ownership map")
	}
	if cfg.RepoAddr == "" {
		return nil, fmt.Errorf("cluster: router needs a repository address")
	}
	if cfg.Ownership.Shards() != len(cfg.Shards) {
		return nil, fmt.Errorf("cluster: ownership spans %d shards, router fronts %d",
			cfg.Ownership.Shards(), len(cfg.Shards))
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Router{
		cfg:      cfg,
		surveyed: len(cfg.Ownership.Universe()),
		links:    make(map[string]*shardLink),
	}
	r.Node = node.New("cluster router", cfg.Addr, cfg.MetricsAddr, cfg.Logf, r.handleClientFrame)
	r.Unblock = r.release
	if cfg.Regions != nil {
		r.covers = htm.NewCoverCache(cfg.Regions)
	}
	r.routerLat = r.Reg.NewHistogram("delta_router_query_seconds",
		"End-to-end scatter/gather latency of routed queries.")
	r.fragLat = r.Reg.NewHistogram("delta_router_fragment_seconds",
		"Per-fragment shard round-trip latency (successful attempts); its p99 derives the hedge delay.")
	r.queries = r.Reg.NewCounter("delta_router_queries_total",
		"Client queries routed by this router.")
	r.scattered = r.Reg.NewCounter("delta_router_scattered_total",
		"Routed queries split across two or more shards.")
	r.degraded = r.Reg.NewCounter("delta_router_degraded_total",
		"Routed queries answered without every fragment.")
	r.rerouted = r.Reg.NewCounter("delta_router_rerouted_total",
		"Failed fragments fully recovered via an alternate owner.")
	r.failover = r.Reg.NewCounter("delta_router_failover_total",
		"Failed fragments fully recovered via a non-primary replica.")
	r.hedged = r.Reg.NewCounter("delta_router_hedged_total",
		"Hedged replica attempts fired for slow primaries.")
	r.births = r.Reg.NewCounter("delta_router_births_total",
		"Born objects adopted into the routing universe.")
	r.grantBatches = r.Reg.NewCounter("delta_router_grant_batches_total",
		"Batched birth-grant frames shipped to shards (each may carry many births).")
	r.Reg.NewCounterFunc("delta_router_result_cache_hits_total",
		"Routed queries answered from the router's invalidation-aware result cache.",
		func() float64 { return float64(r.results.Hits()) })
	r.Reg.NewCounterFunc("delta_router_result_cache_misses_total",
		"Routed queries that missed the result cache and scattered (or coalesced).",
		func() float64 { return float64(r.results.Misses()) })
	r.Reg.NewCounterFunc("delta_router_result_cache_invalidations_total",
		"Cached results evicted by an update notice on a member object, an epoch flip, or loss of the invalidation stream (births evict nothing).",
		func() float64 { return float64(r.results.Invalidations()) })
	r.Reg.NewCounterFunc("delta_router_coalesced_total",
		"Queries that joined an identical in-flight query's scatter instead of scattering.",
		func() float64 { return float64(r.results.Coalesced()) })
	r.Reg.NewGaugeFunc("delta_router_shards",
		"Shards in the current routing epoch.",
		func() float64 { return float64(r.routing.Load().own.Shards()) })
	r.Reg.NewGaugeFunc("delta_router_epoch",
		"Current routing epoch (completed resizes).",
		func() float64 { return float64(r.routing.Load().epoch) })
	r.Reg.NewGaugeFunc("delta_router_replicas",
		"Replication factor K: how many shards hold each object.",
		func() float64 { return float64(r.routing.Load().own.Replicas()) })
	// Region resolution happens here, not on the shards. What the
	// shards count they expose themselves.
	r.Reg.NewCounterFunc("delta_cover_cache_hits_total",
		"Sky-region resolutions answered from the router's HTM cover cache.",
		func() float64 { hits, _ := r.covers.Stats(); return float64(hits) })
	r.Reg.NewCounterFunc("delta_cover_cache_misses_total",
		"Sky-region resolutions the router recomputed via partition cover.",
		func() float64 { _, misses := r.covers.Stats(); return float64(misses) })
	rt := &routing{own: cfg.Ownership}
	for i, addr := range cfg.Shards {
		link, err := r.dialLink(addr)
		if err != nil {
			r.closeLinks()
			return nil, fmt.Errorf("cluster: dial shard %d: %w", i, err)
		}
		rt.links = append(rt.links, link)
	}
	install := make([]reshardTarget, len(rt.links))
	for i, link := range rt.links {
		install[i] = reshardTarget{shard: i, link: link, owned: rt.own.ShardObjects(i)}
	}
	if err := r.reshardAll(context.Background(), rt.epoch, rt.own, install); err != nil {
		r.closeLinks()
		return nil, fmt.Errorf("cluster: install ownership: %w", err)
	}
	r.routing.Store(rt)
	r.status = netproto.RebalanceStatusMsg{Phase: "idle", From: len(cfg.Shards), To: len(cfg.Shards)}
	repo, err := netproto.DialSession(cfg.RepoAddr, "client", netproto.SessionConfig{
		DialRetry: netproto.StartupDialRetry,
	})
	if err != nil {
		r.closeLinks()
		return nil, fmt.Errorf("cluster: dial repository: %w", err)
	}
	r.repo = repo
	// The result cache is safe only with the invalidation stream feeding
	// evictions: create it before the subscription, so no invalidation
	// can race the cache into existence.
	if cfg.ResultCacheSize >= 0 {
		r.results = core.NewResultCache[netproto.QueryResultMsg](cfg.ResultCacheSize, func(id model.ObjectID) (int, bool) {
			return r.routing.Load().own.Pos(id)
		})
	}
	// The adoption worker runs before the stream that feeds it.
	r.birthCh = make(chan birthReq, 64)
	r.Go(r.birthWorker)
	if err := r.subscribeInvalidations(); err != nil {
		r.Close()
		return nil, err
	}
	// Adopt the births published so far before serving: with the stream
	// subscribed, each later one is announced on it.
	u, err := netproto.FetchUniverse(context.Background(), repo)
	if err == nil {
		_, err = r.adoptBirths(context.Background(), u.Births)
	}
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("cluster: catch up on births: %w", err)
	}
	return r, nil
}

// checkShardAddrs rejects an empty shard address list and one holding an
// empty or repeated address. Sessions are keyed by address, so a
// repeated address would give two topology positions one shard: it
// would receive both positions' owned sets and keep only the later.
func checkShardAddrs(addrs []string) error {
	if len(addrs) == 0 {
		return fmt.Errorf("cluster: at least one shard address is required")
	}
	seen := make(map[string]int, len(addrs))
	for i, addr := range addrs {
		if addr == "" {
			return fmt.Errorf("cluster: shard %d has an empty address", i)
		}
		if j, dup := seen[addr]; dup {
			return fmt.Errorf("cluster: shards %d and %d share the address %s", j, i, addr)
		}
		seen[addr] = i
	}
	return nil
}

// shardPool is how many multiplexed connections back each shard session.
const shardPool = 2

// dialLink returns the registry's session for addr, dialing one if the
// address is new. The dial happens outside the registry lock; a racing
// dial of the same address keeps the first session.
func (r *Router) dialLink(addr string) (*shardLink, error) {
	r.linksMu.Lock()
	if l, ok := r.links[addr]; ok {
		r.linksMu.Unlock()
		return l, nil
	}
	r.linksMu.Unlock()
	sess, err := netproto.DialSession(addr, "client", netproto.SessionConfig{
		PoolSize:  shardPool,
		DialRetry: netproto.StartupDialRetry,
	})
	if err != nil {
		return nil, err
	}
	link := &shardLink{addr: addr, sess: sess}
	r.linksMu.Lock()
	defer r.linksMu.Unlock()
	if r.linksClosed {
		sess.Close()
		return nil, fmt.Errorf("cluster: router is closing")
	}
	if l, ok := r.links[addr]; ok {
		sess.Close()
		return l, nil
	}
	r.links[addr] = link
	return link, nil
}

// dropLink closes and forgets the session to addr (a shard that left
// the cluster). In-flight round trips on it fail and re-route.
func (r *Router) dropLink(addr string) {
	r.linksMu.Lock()
	link, ok := r.links[addr]
	delete(r.links, addr)
	r.linksMu.Unlock()
	if ok {
		link.sess.Close()
	}
}

// release is the runtime's Unblock hook: closing the repository session
// and every shard session fails the round trips handlers wait on.
func (r *Router) release() {
	r.repo.Close()
	r.closeLinks()
}

func (r *Router) closeLinks() {
	r.linksMu.Lock()
	r.linksClosed = true
	links := make([]*shardLink, 0, len(r.links))
	for _, l := range r.links {
		links = append(links, l)
	}
	r.linksMu.Unlock()
	for _, l := range links {
		l.sess.Close()
	}
}

func (r *Router) handleClientFrame(f netproto.Frame) netproto.Frame {
	ctx := context.Background()
	switch body := f.Body.(type) {
	case netproto.QueryMsg:
		var detail string
		if len(body.Query.Objects) == 0 && !body.Region.Empty() {
			objs, d, err := r.covers.Region(body.Region.RA, body.Region.Dec, body.Region.RadiusDeg)
			if err != nil {
				return netproto.ErrorFrame("cluster: %v", err)
			}
			body.Query.Objects, detail = objs, d
		}
		return r.routeQuery(ctx, &body.Query, body.TraceID, detail)
	case netproto.StatsMsg:
		return netproto.Frame{Type: netproto.MsgStats, Body: r.clusterStats(ctx)}
	case netproto.AdminResizeMsg:
		st, err := r.Resize(ctx, ResizeSpec{Shards: body.Shards})
		if err != nil {
			return netproto.ErrorFrame("cluster: resize: %v", err)
		}
		return netproto.Frame{Type: netproto.MsgRebalanceStatus, Body: st}
	case netproto.RebalanceStatusMsg:
		return netproto.Frame{Type: netproto.MsgRebalanceStatus, Body: r.RebalanceStatus()}
	case netproto.ObjectBirthMsg:
		return r.handleBirths(ctx, body)
	case netproto.UniverseMsg:
		reply, err := r.repo.RoundTrip(ctx, f)
		if err != nil {
			return netproto.ErrorFrame("cluster: universe: %v", err)
		}
		return reply
	default:
		return netproto.ErrorFrame("cluster: client sent %s", f.Type)
	}
}

// scatter is what one split's fragments share: the routing view their
// Holder indexes, and what every attempt at the client's query inherits:
// its trace and how many fragments it was first split into.
type scatter struct {
	rt        *routing
	traceID   uint64
	fragments int
}

// answer is what the attempt loop gathered for one fragment: a partial
// result per holder that answered, and the error that lost the objects
// no holder answered for (nil when every object was answered).
type answer struct {
	results []netproto.QueryResultMsg
	lost    error
}

// routeQuery answers a client query, doing identical work at most
// once: a signature-matching cached result answers immediately, a
// signature-matching in-flight scatter is joined as a coalesced
// follower, and only a genuinely novel query scatters to the shards.
// Degraded or failed leader results are never shared — each follower
// falls back to its own scatter — and with the result cache disabled
// every query scatters.
func (r *Router) routeQuery(ctx context.Context, q *model.Query, traceID uint64, detail string) netproto.Frame {
	r.queries.Inc()
	start := time.Now()
	if len(q.Objects) == 0 {
		return netproto.ErrorFrame("query %d accesses no objects", q.ID)
	}
	cached, fl, leader := r.results.Begin(q.Objects)
	switch {
	case cached != nil:
		return r.serveShared(q, cached, traceID, joinDetail(detail, "result-cache=hit"), start)
	case fl != nil && !leader:
		if res, ok := r.results.Wait(fl); ok {
			return r.serveShared(q, &res, traceID, joinDetail(detail, "coalesced=follower"), start)
		}
		// The leader's scatter failed or degraded: not shareable, so
		// answer with a scatter of our own.
		return r.scatterQuery(ctx, q, traceID, detail, start)
	case fl != nil:
		// Leading: scatter, then publish to the followers (and, if the
		// result is clean and no invalidation raced it, to the cache).
		frame := r.scatterQuery(ctx, q, traceID, detail, start)
		res, ok := frame.Body.(netproto.QueryResultMsg)
		r.results.Complete(fl, res, ok && !res.Degraded)
		return frame
	default:
		// Signature collision, or the cache is off: pass through uncached.
		return r.scatterQuery(ctx, q, traceID, detail, start)
	}
}

// joinDetail merges the cover-cache detail of region resolution with a
// result-cache detail into one trace-span annotation.
func joinDetail(a, b string) string {
	if a == "" {
		return b
	}
	return a + " " + b
}

// serveShared answers a query from a cached or coalesced merged
// result, re-stamped for this client: its own QueryID, its own ν(q) as
// Logical (cost-share accounting keeps summing exactly to what each
// client declared), Source "cache" (the routing tier answered without
// repository work), and — when traced — a fresh router span, since the
// original scatter's shard spans belong to another request. Payload
// and Rows are shared read-only, which respects the frame ownership
// contract: the router assembled both itself when merging (decoded v3
// frames own their memory, and merges append into fresh slices), they
// are never pooled, and nothing downstream mutates a result body.
func (r *Router) serveShared(q *model.Query, res *netproto.QueryResultMsg, traceID uint64, detail string, start time.Time) netproto.Frame {
	out := netproto.QueryResultMsg{
		QueryID: q.ID,
		Logical: q.Cost,
		Rows:    res.Rows,
		Payload: res.Payload,
		Source:  "cache",
		Elapsed: res.Elapsed,
	}
	elapsed := time.Since(start)
	r.routerLat.Observe(elapsed)
	if traceID != 0 {
		out.TraceID = traceID
		out.Spans = []netproto.TraceSpan{{
			Name:    "router",
			Node:    r.Addr(),
			Shard:   -1,
			Epoch:   r.routing.Load().epoch,
			Objects: len(q.Objects),
			Source:  out.Source,
			Detail:  detail,
			Elapsed: elapsed,
		}}
		r.Traces.Add(traceID, out.Spans)
	}
	return netproto.Frame{Type: netproto.MsgQueryResult, Body: out}
}

// scatterQuery scatters a query to the shards owning its objects under
// the current routing epoch, gathers the fragments, and merges them
// into one result. Each fragment is fetched by the attempt loop (fetch),
// which walks the objects' other holders when a shard fails or
// straggles; only objects no holder answers for degrade the answer. If
// some — but not all — objects are lost, the merged result is returned
// with Degraded set and the failed shards listed, so a dead shard
// degrades answers instead of failing them.
func (r *Router) scatterQuery(ctx context.Context, q *model.Query, traceID uint64, detail string, start time.Time) netproto.Frame {
	rt := r.routing.Load()
	frags, stranded, _ := rt.own.Split(rt.alt, core.Fragment{Holder: -1, Query: *q}, nil, false)
	if len(stranded) > 0 {
		return netproto.ErrorFrame("query %d: cluster: object %d is outside the cluster's universe", q.ID, stranded[0])
	}
	if len(frags) > 1 {
		r.scattered.Inc()
	}
	outs := r.gather(ctx, scatter{rt: rt, traceID: traceID, fragments: len(frags)}, frags, nil)

	merged := netproto.QueryResultMsg{QueryID: q.ID}
	var (
		okCount  int
		anyCache bool
		anyRepo  bool
		firstErr error
	)
	for i, out := range outs {
		if out.lost != nil {
			merged.Degraded = true
			merged.MissingShards = append(merged.MissingShards, frags[i].Holder)
			if firstErr == nil {
				firstErr = out.lost
			}
		}
		for _, res := range out.results {
			okCount++
			merged.Logical += res.Logical
			merged.Spans = append(merged.Spans, res.Spans...)
			merged.Rows = append(merged.Rows, res.Rows...)
			// Cap the merged payload at what a single node may ship
			// (PayloadLen's MaxFrame/2 bound): fragments past the cap are
			// truncated rather than risking an oversized reply frame that
			// would poison the client connection. Payloads are scaled
			// stand-ins; Logical stays the authoritative full size.
			if len(merged.Payload)+len(res.Payload) <= netproto.MaxFrame/2 {
				merged.Payload = append(merged.Payload, res.Payload...)
			}
			if res.Elapsed > merged.Elapsed {
				merged.Elapsed = res.Elapsed
			}
			switch res.Source {
			case "cache":
				anyCache = true
			default:
				anyRepo = true
			}
		}
	}
	if okCount == 0 {
		// Nothing to degrade to: every owning shard failed.
		return netproto.ErrorFrame("query %d: all %d owning shards failed: %v", q.ID, len(frags), firstErr)
	}
	if merged.Degraded {
		r.degraded.Inc()
		slices.Sort(merged.MissingShards)
		merged.MissingShards = slices.Compact(merged.MissingShards)
	}
	switch {
	case anyCache && anyRepo:
		merged.Source = "mixed"
	case anyCache:
		merged.Source = "cache"
	default:
		merged.Source = "repository"
	}
	elapsed := time.Since(start)
	r.routerLat.Observe(elapsed)
	if traceID != 0 {
		merged.TraceID = traceID
		merged.Spans = append([]netproto.TraceSpan{{
			Name:      "router",
			Node:      r.Addr(),
			Shard:     -1,
			Epoch:     rt.epoch,
			Fragments: len(frags),
			Objects:   len(q.Objects),
			Source:    merged.Source,
			Detail:    detail,
			Elapsed:   elapsed,
		}}, merged.Spans...)
		r.Traces.Add(traceID, merged.Spans)
	}
	return netproto.Frame{Type: netproto.MsgQueryResult, Body: merged}
}

// shardTimeout bounds each shard round trip. Without it a wedged — alive
// but unresponsive — shard would hang queries forever instead of
// degrading them (a Session only fails on connection death).
const shardTimeout = 30 * time.Second

// shardRoundTrip sends one fragment to its holder and decodes the
// reply. Successful round trips feed the fragment-latency histogram the
// hedge delay is derived from.
func (r *Router) shardRoundTrip(ctx context.Context, sc scatter, fr core.Fragment) (netproto.QueryResultMsg, error) {
	start := time.Now()
	reply, err := sc.rt.links[fr.Holder].sess.RoundTripTimeout(ctx, netproto.Frame{
		Type: netproto.MsgShardQuery,
		Body: netproto.ShardQueryMsg{
			Query:     fr.Query,
			Shard:     fr.Holder,
			Fragments: max(sc.fragments, 1),
			TraceID:   sc.traceID,
		},
	}, shardTimeout)
	if err != nil {
		return netproto.QueryResultMsg{}, err
	}
	res, ok := reply.Body.(netproto.QueryResultMsg)
	if !ok {
		return netproto.QueryResultMsg{}, fmt.Errorf("shard %d replied %s", fr.Holder, reply.Type)
	}
	r.fragLat.Observe(time.Since(start))
	return res, nil
}

// minimum hedge delay while the fragment-latency histogram is cold:
// high enough that a healthy same-host round trip never hedges, low
// enough to cut a straggler's tail.
const defaultHedgeDelay = 2 * time.Millisecond

// hedgeDelaySamples is how many fragment latencies must be observed
// before the p99 derivation trusts the histogram over the default.
const hedgeDelaySamples = 64

// hedgeDelay returns how long the primary may lag before the hedge
// fires: Config.HedgeDelay when pinned, else the observed fragment p99
// so only true stragglers hedge.
func (r *Router) hedgeDelay() time.Duration {
	if r.cfg.HedgeDelay > 0 {
		return r.cfg.HedgeDelay
	}
	if r.fragLat.Count() >= hedgeDelaySamples {
		if p99 := r.fragLat.Quantile(0.99); p99 > 0 {
			return max(time.Duration(p99*float64(time.Second)), defaultHedgeDelay)
		}
	}
	return defaultHedgeDelay
}

// gather fetches the fragments of one split concurrently: the last on
// the calling goroutine, so the usual one-fragment split spawns nothing.
func (r *Router) gather(ctx context.Context, sc scatter, frags []core.Fragment, struck []string) []answer {
	outs := make([]answer, len(frags))
	var wg sync.WaitGroup
	last := len(frags) - 1
	for i := range last {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = r.fetch(ctx, sc, frags[i], struck)
		}()
	}
	if last >= 0 {
		outs[last] = r.fetch(ctx, sc, frags[last], struck)
	}
	wg.Wait()
	return outs
}

// fetch is the attempt loop: it answers fr by whichever holders it
// takes. It sends fr to its holder, and the next attempt (next) starts
// when that send fails — or, with hedging on, when the hedge delay
// passes first, in which case the two race: the first complete answer
// wins and the loser is cancelled through ctx. The next attempt's
// fragments are fetched the same way, so the walk goes on until an
// attempt answers or an object has no candidate left. struck is what
// the attempts before this one learned: the addresses of links that
// failed this client fragment in transport, timed out, rejected it, or
// are still being waited on by a hedge race — none is a candidate for
// its objects again. It holds addresses, not holder indices, because
// each attempt splits under the freshest routing view, whose holders
// may be numbered differently. Each branch of the walk extends its own
// copy.
func (r *Router) fetch(ctx context.Context, sc scatter, fr core.Fragment, struck []string) answer {
	var (
		timer *time.Timer
		hedge chan answer // carries the raced attempt; closed if none could be planned
	)
	if r.cfg.Hedge {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		hedge = make(chan answer, 1)
		timer = time.AfterFunc(r.hedgeDelay(), func() {
			out, ok := r.next(ctx, sc, fr, struck, nil)
			if !ok {
				close(hedge)
				return
			}
			if out.lost == nil {
				cancel() // complete: stop waiting for the straggler
			}
			hedge <- out
		})
		defer timer.Stop()
	}
	res, err := r.shardRoundTrip(ctx, sc, fr)
	if err == nil {
		return answer{results: []netproto.QueryResultMsg{res}}
	}
	if timer != nil && !timer.Stop() {
		// The hedge already fired: its attempt is this send's recovery
		// too, complete or not — its links must not be asked again.
		if out, ok := <-hedge; ok {
			return out
		}
	}
	if ctx.Err() != nil {
		return answer{lost: err} // cancelled, not failed: a race was lost upstream
	}
	out, _ := r.next(ctx, sc, fr, struck, err)
	return out
}

// next runs the attempt after a send of fr that failed with cause — or,
// when cause is nil, that the hedge timer found unanswered: fr's holder
// is struck, and fr's objects are split again under the freshest
// routing view (a stale epoch's owner may simply have changed) and
// fetched concurrently. A hedge is only worth racing when it can answer
// everything, so it reports !ok instead of attempting a split that
// strands objects; a failure recovers what it can and loses the rest.
func (r *Router) next(ctx context.Context, sc scatter, fr core.Fragment, struck []string, cause error) (out answer, ok bool) {
	var rejection *netproto.RemoteError // a live shard's refusal, not a dead link
	failed, addr := fr.Holder, sc.rt.links[fr.Holder].addr
	struck = append(slices.Clip(struck), addr)
	sc.rt = r.routing.Load()
	struckAt := make([]int, len(struck))
	for i, a := range struck {
		struckAt[i] = sc.rt.holderAt(a) // -1 where this view lacks the link: no candidate
	}
	fr.Holder = sc.rt.holderAt(addr) // -1, so no narrowed retry, once the shard has left
	groups, stranded, viaReplica := sc.rt.own.Split(sc.rt.alt, fr, struckAt, errors.As(cause, &rejection))
	if cause == nil {
		if len(stranded) > 0 {
			return answer{}, false
		}
		r.hedged.Inc()
	} else {
		r.cfg.Logf("query %d: %d objects on shard %d failed (%d stranded): %v",
			fr.Query.ID, len(fr.Query.Objects), failed, len(stranded), cause)
	}
	if len(stranded) > 0 {
		out.lost = cause
	}
	for _, a := range r.gather(ctx, sc, groups, struck) {
		out.results = append(out.results, a.results...)
		if out.lost == nil {
			out.lost = a.lost
		}
	}
	if cause != nil && out.lost == nil {
		if viaReplica {
			r.failover.Inc()
		} else {
			r.rerouted.Inc()
		}
	}
	return out, true
}

// statsTimeout bounds each shard's stats probe (the router's MsgStats
// answer, and the residency probe that opens a live resize).
const statsTimeout = 5 * time.Second

// fanOut sends frame(i) to links[i] for every link concurrently, each
// round trip bounded by timeout, and returns the replies and errors in
// link order.
func fanOut(ctx context.Context, links []*shardLink, timeout time.Duration, frame func(i int) netproto.Frame) ([]netproto.Frame, []error) {
	replies := make([]netproto.Frame, len(links))
	errs := make([]error, len(links))
	var wg sync.WaitGroup
	for i, l := range links {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			replies[i], errs[i] = l.sess.RoundTrip(ctx, frame(i))
		}()
	}
	wg.Wait()
	return replies, errs
}

// probeStats asks every link for its StatsMsg in parallel, each probe
// bounded by statsTimeout, and returns each link's answer and error.
func (r *Router) probeStats(ctx context.Context, links []*shardLink) ([]netproto.StatsMsg, []error) {
	replies, errs := fanOut(ctx, links, statsTimeout, func(int) netproto.Frame {
		return netproto.Frame{Type: netproto.MsgStats, Body: netproto.StatsMsg{}}
	})
	stats := make([]netproto.StatsMsg, len(links))
	for i := range links {
		if errs[i] != nil {
			continue
		}
		var ok bool
		if stats[i], ok = replies[i].Body.(netproto.StatsMsg); !ok {
			errs[i] = fmt.Errorf("shard replied %s", replies[i].Type)
		}
	}
	return stats, errs
}

// clusterStats probes every shard and builds the router's MsgStats
// answer. Its unlabelled part is the aggregate over the live shards and
// the router's own registry; its Cached lists each resident once,
// however many replicas hold it, and delta_cached_objects counts that
// list. Then, per shard in routing order, come delta_shard_up (1 live,
// 0 not) and every sample of a live shard's answer, labelled with the
// shard. A shard that fails to answer is logged.
func (r *Router) clusterStats(ctx context.Context) netproto.StatsMsg {
	rt := r.routing.Load()
	links := rt.links[:rt.own.Shards()]
	stats, errs := r.probeStats(ctx, links)
	var agg netproto.StatsMsg
	var shards []netproto.Sample
	for i, l := range links {
		up := netproto.Sample{Name: fmt.Sprintf(`delta_shard_up{shard="%d",addr=%q}`, i, l.addr)}
		if errs[i] != nil {
			r.cfg.Logf("stats: shard %d (%s): %v", i, l.addr, errs[i])
			shards = append(shards, up)
			continue
		}
		up.Value = 1
		shards = append(shards, up)
		st := &stats[i]
		for _, s := range st.Metrics {
			shards = append(shards, netproto.Sample{Name: fmt.Sprintf(`%s{shard="%d"}`, s.Name, i), Value: s.Value})
		}
		agg.Ledger.QueryShip += st.Ledger.QueryShip
		agg.Ledger.UpdateShip += st.Ledger.UpdateShip
		agg.Ledger.ObjectLoad += st.Ledger.ObjectLoad
		agg.Ledger.QueryShips += st.Ledger.QueryShips
		agg.Ledger.UpdateShips += st.Ledger.UpdateShips
		agg.Ledger.ObjectLoads += st.Ledger.ObjectLoads
		agg.Queries += st.Queries
		agg.AtCache += st.AtCache
		agg.DroppedInvalidations += st.DroppedInvalidations
		agg.DedupedLoads += st.DedupedLoads
		agg.Metrics = mergeSamples(agg.Metrics, st.Metrics)
		agg.Cached = append(agg.Cached, st.Cached...)
		if agg.Policy == "" && st.Policy != "" {
			agg.Policy = fmt.Sprintf("cluster(%s×%d)", st.Policy, len(links))
		}
	}
	// What the routing tier counts (regions, result cache, births, K).
	agg.Metrics = mergeSamples(agg.Metrics, r.Reg.Values())
	slices.Sort(agg.Cached)
	agg.Cached = slices.Compact(agg.Cached)
	if i := slices.IndexFunc(agg.Metrics, func(s netproto.Sample) bool { return s.Name == "delta_cached_objects" }); i >= 0 {
		agg.Metrics[i].Value = float64(len(agg.Cached))
	}
	agg.Metrics = append(agg.Metrics, shards...)
	return agg
}

// mergeSamples folds samples into merged by name, in first-seen order:
// a *_total counter sums, and any other sample, a gauge, takes the
// largest value (the oldest snapshot, the longest journal).
func mergeSamples(merged, samples []netproto.Sample) []netproto.Sample {
	for _, s := range samples {
		i := slices.IndexFunc(merged, func(m netproto.Sample) bool { return m.Name == s.Name })
		switch {
		case i < 0:
			merged = append(merged, s)
		case strings.HasSuffix(s.Name, "_total"):
			merged[i].Value += s.Value
		default:
			merged[i].Value = max(merged[i].Value, s.Value)
		}
	}
	return merged
}

// ShardInfo describes one shard in a topology snapshot.
type ShardInfo struct {
	Index int
	Addr  string
	// Alive reports whether the router still has a usable session to
	// the shard.
	Alive bool
	// Objects is the shard's owned object set.
	Objects []model.ObjectID
}

// Topology is a point-in-time snapshot of the cluster's shape.
type Topology struct {
	// Epoch counts completed resizes; it increments when a live
	// resize flips the routing table.
	Epoch  int
	Shards []ShardInfo
}

// Topology snapshots the live shard topology.
func (r *Router) Topology() Topology {
	rt := r.routing.Load()
	t := Topology{Epoch: rt.epoch}
	for i, s := range rt.links[:rt.own.Shards()] {
		t.Shards = append(t.Shards, ShardInfo{
			Index:   i,
			Addr:    s.addr,
			Alive:   s.sess.Live(),
			Objects: rt.own.ShardObjects(i),
		})
	}
	return t
}

// Ownership returns the current routing epoch's ownership map.
func (r *Router) Ownership() *core.Ownership { return r.routing.Load().own }

// Queries returns how many client queries the router has routed.
func (r *Router) Queries() int64 { return r.queries.Value() }

// Scattered returns how many routed queries were split across two or
// more shards.
func (r *Router) Scattered() int64 { return r.scattered.Value() }

// Degraded returns how many routed queries were answered without
// every fragment because a shard failed.
func (r *Router) Degraded() int64 { return r.degraded.Value() }

// Rerouted returns how many failed fragments were fully recovered via
// an alternate owner (the double-routing path of live resizes).
func (r *Router) Rerouted() int64 { return r.rerouted.Value() }

// Failover returns how many failed fragments were fully recovered via
// a non-primary replica.
func (r *Router) Failover() int64 { return r.failover.Value() }

// Hedged returns how many hedged replica attempts were fired for slow
// primaries.
func (r *Router) Hedged() int64 { return r.hedged.Value() }

// ResultCacheHits returns how many routed queries were answered from
// the router's result cache (zero when the cache is disabled).
func (r *Router) ResultCacheHits() int64 { return r.results.Hits() }

// Coalesced returns how many queries joined an identical in-flight
// query's scatter instead of scattering themselves.
func (r *Router) Coalesced() int64 { return r.results.Coalesced() }

// ResultCacheInvalidations returns how many cached results were
// evicted by update notices, epoch flips, or the loss of the
// invalidation stream.
func (r *Router) ResultCacheInvalidations() int64 { return r.results.Invalidations() }

// GrantBatches returns how many batched birth-grant frames the router
// has shipped to shards.
func (r *Router) GrantBatches() int64 { return r.grantBatches.Value() }
