// Package cache implements the Delta middleware node: the service that
// sits close to the clients, accepts their queries, and uses a
// decoupling policy (VCover by default) to decide, per query, whether to
// answer from its local object store, ship outstanding updates first, or
// ship the query to the repository — and, in the background, whether to
// load objects. It subscribes to the repository's invalidation stream so
// its policy sees every update the moment the repository ingests it (a
// cluster shard: every update on what it owns, filter.go).
//
// The node is the I/O shell around core.Shard, the state machine the
// simulator drives too, whose doc states the order of a recovery, a
// reshard and a resume: the node moves what each Plan owes, writes the
// journal and snapshots, and runs the filter handshake between a
// reshard's halves. An at-cache answer over an absent or stale object
// fails closed — the query ships — and counts, with every other
// violation, in delta_decision_violations_total.
//
// Concurrency model: the policy's decision framework is sequential by
// design, so every core.Shard call runs under one mutex — but
// that critical section contains no network I/O. Query shipping, update
// shipping and object loads all execute outside the lock on a
// multiplexed repository session (a small connection pool with
// RequestID demultiplexing). A decision's loads
// travel as one batched round trip, which a shipped query overlaps, and
// per-object singleflight makes concurrent decisions that need the same
// object share one load. A client connection's requests run on its own
// bounded set of worker goroutines, so a query stalled on an object load
// never head-of-line-blocks its neighbors. If the invalidation stream
// is lost, the node fails closed — every query ships — until it has
// resubscribed and resumed.
package cache

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/htm"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/node"
	"github.com/deltacache/delta/internal/obs"
	"github.com/deltacache/delta/internal/persist"
)

// Config parameterizes the middleware.
type Config struct {
	// Addr is the client-facing listen address.
	Addr string
	// RepoAddr is the repository's address.
	RepoAddr string
	// Policy decides; nil defaults to VCover. The node keeps this one
	// instance for its whole life (core.Shard).
	Policy core.Policy
	// Objects is the object universe (must match the repository's).
	Objects []model.Object
	// Shard makes the node a cluster shard: it starts owning nothing,
	// rejects every fragment and notice until its router's first
	// MsgReshard installs what it owns, and from then on owns exactly
	// what reshards and birth grants give it. False is the standalone
	// cache, which owns the whole universe.
	Shard bool
	// Capacity is the cache size.
	Capacity cost.Bytes
	// ReshardCapacity recomputes the node's capacity for a new owned
	// universe during a live reshard (e.g. a fixed fraction of the
	// owned data, or exactly its size for the replicated shape). Nil
	// keeps Capacity fixed across reshards.
	ReshardCapacity func(owned []model.Object) cost.Bytes
	// Scale converts logical sizes to physical payloads.
	Scale netproto.PayloadScale
	// Resolver maps a sky cap to the object IDs whose partitions may
	// intersect it (typically catalog.Survey.CoverCap). When set,
	// queries arriving with a SkyRegion instead of an object list are
	// resolved here, memoized through a bounded cover cache whose
	// hit/miss counters are /metrics samples. Nil rejects region
	// queries. Cluster shards must leave it nil: a shard resolves
	// against the whole sky but owns a subset, so every region query
	// would die on the ownership check — regions resolve at the
	// router.
	Resolver func(geom.Cap) []model.ObjectID
	// ResolverGrow feeds adopted births into the resolver's universe
	// (typically wrapping catalog.Survey.AddObject on the same survey
	// backing Resolver), so sky-region covers include live-born
	// objects. Without it, a resolver built from the startup survey
	// would silently exclude newborns from every region forever.
	// Required when Resolver is set on a node that can grow.
	ResolverGrow func([]model.Birth) error
	// DataDir, when set, enables the durability layer (internal/persist):
	// the node journals births and admission/eviction decisions, writes
	// periodic snapshots of its births and residents, and on startup
	// replays snapshot+journal to rejoin warm, in core.Shard's recovery
	// order. Empty disables persistence.
	DataDir string
	// SnapshotInterval paces the periodic snapshot loop when DataDir is
	// set (0 = 30s default). Snapshots are also written after every
	// reshard and on Close, so the interval only bounds how much journal
	// a crash replays.
	SnapshotInterval time.Duration
	// MetricsAddr, when set, binds the node's debug HTTP endpoint
	// (/metrics, /healthz, /debug/traces, /debug/pprof) on Start — the
	// -metrics-addr flag. Empty disables the listener; metrics and
	// traces are still collected.
	MetricsAddr string
	// Logf logs events; nil silences.
	Logf func(format string, args ...any)
}

// Middleware is a running cache node. The embedded runtime provides
// Start, Addr, DebugAddr and Close.
type Middleware struct {
	*node.Node
	cfg    Config
	ledger cost.Ledger
	repo   *netproto.Session

	// mu guards shard, the node's decision state. The decision framework
	// is sequential by design; network I/O never happens under this lock.
	mu    sync.Mutex
	shard *core.Shard

	loads loadGroup

	// covers resolves sky regions through Resolver and ResolverGrow;
	// nil (every method still callable) when no Resolver is set.
	covers *htm.CoverCache

	// store is the durability layer (nil when Config.DataDir is empty).
	store *persist.Store

	// Counters and gauges, declared on Reg in New; their help strings
	// there say what each counts. Stats reads them.
	queries, atCache, shipped, droppedInv, dedupLoads *obs.Counter
	migratedIn, bornObjects, violations               *obs.Counter
	recoveredWarm                                     *obs.Gauge
	queryLat, loadLat, fsyncLat                       *obs.Histogram

	// inv is the invalidation subscription; a cluster shard also sends
	// its owned set on it (filter.go).
	inv *node.Subscription
}

// plan is an applied decision's core.Plan plus its loads as registered
// with the node's singleflight. It runs in two halves so a shipped query
// can overlap its loads: startPlan journals the residency changes and
// puts the loads this decision leads on the wire as one flight, and
// finishPlan waits for every load the decision needs — led or joined —
// and then ships its updates.
type plan struct {
	core.Plan
	loads []pendingLoad
}

// pendingLoad is a load registered at commit time (so loadGroup.wait
// can find it the moment residency becomes visible); leader marks the
// plan whose flight must actually fetch it.
type pendingLoad struct {
	id     model.ObjectID
	call   *loadCall
	leader bool
}

// maxLoadBatch caps the objects one MsgLoadObject names. Decisions load
// far fewer; a Replica/SOptimal preload of a large universe goes out in
// frames of this many, which keeps each reply (object metadata plus a
// payload capped at MaxFrame/2) under netproto.MaxFrame.
const maxLoadBatch = 1024

// repoDialRetry is how long New keeps retrying a refused repository
// connection, with backoff: a cache often starts alongside its
// repository.
const repoDialRetry = 5 * time.Second

// repoPool is how many multiplexed connections back the repository session.
const repoPool = 2

// New builds the middleware, connects it to the repository, initializes
// the policy (a shard's waits for its router's first reshard) and
// subscribes to invalidations.
func New(cfg Config) (*Middleware, error) {
	if cfg.RepoAddr == "" {
		return nil, fmt.Errorf("cache: repository address required")
	}
	if len(cfg.Objects) == 0 {
		return nil, fmt.Errorf("cache: object universe required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Policy == nil {
		cfg.Policy = core.NewVCover(core.DefaultVCoverConfig())
	}
	m := &Middleware{
		cfg: cfg,
		shard: core.NewShard(core.ShardConfig{
			Policy:   cfg.Policy,
			Objects:  cfg.Objects,
			Capacity: cfg.Capacity,
			Resize:   cfg.ReshardCapacity,
		}),
	}
	m.Node = node.New("cache", cfg.Addr, cfg.MetricsAddr, cfg.Logf, m.handleClientFrame)
	m.covers = htm.NewCoverCache(256, cfg.Resolver, cfg.ResolverGrow)
	m.queryLat = m.Reg.NewHistogram("delta_query_seconds",
		"End-to-end query handling latency at this cache node (fragment or whole query).", nil)
	m.loadLat = m.Reg.NewHistogram("delta_load_seconds",
		"Repository object-load round-trip latency.", nil)
	m.fsyncLat = m.Reg.NewHistogram("delta_journal_fsync_seconds",
		"Durability journal fsync latency.", nil)
	m.violations = m.Reg.NewCounter("delta_decision_violations_total",
		"Decision items the applier skipped and at-cache answers it shipped instead (absent or stale objects).")
	m.queries = m.Reg.NewCounter("delta_queries_total",
		"Queries (whole, or a router's fragments) this cache handled.")
	m.atCache = m.Reg.NewCounter("delta_queries_at_cache_total",
		"Queries answered from local cache state (hits).")
	m.shipped = m.Reg.NewCounter("delta_queries_shipped_total",
		"Queries shipped upstream to the repository.")
	m.droppedInv = m.Reg.NewCounter("delta_dropped_invalidations_total",
		"Invalidation-stream frames this cache failed to apply: update notices and birth adoptions.")
	m.dedupLoads = m.Reg.NewCounter("delta_deduped_loads_total",
		"Object loads collapsed into an in-flight load (singleflight).")
	m.migratedIn = m.Reg.NewCounter("delta_migrated_in_total",
		"Objects adopted warm as a new holder during live resizes.")
	m.bornObjects = m.Reg.NewCounter("delta_objects_born_total",
		"Newly published objects admitted into this cache's universe.")
	m.recoveredWarm = m.Reg.NewGauge("delta_recovered_warm",
		"Residents re-adopted from disk at the last startup.")
	m.Reg.NewCounterFunc("delta_cover_cache_hits_total",
		"Sky-region resolutions answered from the HTM cover cache.",
		func() float64 { hits, _ := m.covers.Stats(); return float64(hits) })
	m.Reg.NewCounterFunc("delta_cover_cache_misses_total",
		"Sky-region resolutions recomputed via partition cover.",
		func() float64 { _, misses := m.covers.Stats(); return float64(misses) })
	m.Reg.NewGaugeFunc("delta_cached_objects",
		"Objects resident in this cache, recovered ones held for a shard's first reshard included.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.shard.Len())
		})

	// Recover the previous incarnation's births and residents before the
	// policy sees any universe (core.Shard.Recover).
	if cfg.DataDir != "" {
		store, err := persist.Open(persist.Options{
			Dir:         cfg.DataDir,
			Logf:        cfg.Logf,
			SyncObserve: m.fsyncLat.Observe,
		})
		if err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		m.store = store
		st, err := store.Recover()
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("cache: %w", err)
		}
		if st != nil {
			m.shard.Recover(st.Births, st.Resident)
			m.cfg.Logf("recovered %d births and %d residents", len(st.Births), m.shard.Len())
			// The resolver was built from the startup survey; recovered
			// births must rejoin its universe or region covers would
			// exclude them until the next live birth.
			if len(st.Births) > 0 {
				if err := m.covers.Grow(st.Births); err != nil {
					m.cfg.Logf("recovery resolver growth: %v (region covers may miss recovered newborns)", err)
				}
			}
		}
	}
	m.ExposeAccounting(&m.ledger, m.store)
	var start core.Start
	var preload []pendingLoad
	if !cfg.Shard {
		// A standalone cache owns the whole universe; a shard owns
		// nothing until its router's first reshard.
		m.mu.Lock()
		var err error
		start, err = m.shard.Init()
		preload = m.registerLoads(start.Preload)
		m.mu.Unlock()
		if err != nil {
			m.closeStore()
			return nil, err
		}
		m.logStart(start)
	}
	if m.store != nil {
		// Land the post-recovery truth as the new baseline snapshot (and
		// rotate the journal) before serving anything.
		if err := m.store.WriteSnapshot(m.persistState()); err != nil {
			m.closeStore()
			return nil, fmt.Errorf("cache: %w", err)
		}
	}

	// Multiplexed request/response session to the repository.
	dial := netproto.SessionConfig{PoolSize: repoPool, DialRetry: repoDialRetry}
	sess, err := netproto.DialSession(cfg.RepoAddr, "cache", dial)
	if err != nil {
		m.closeStore()
		return nil, fmt.Errorf("cache: dial repository: %w", err)
	}
	m.repo = sess

	// Invalidation subscription: every update applied once New returns
	// is delivered here.
	m.inv, err = m.Subscribe(cfg.RepoAddr, dial, node.StreamHandler{
		Frame: m.streamFrame,
		Gap: func() {
			m.mu.Lock()
			m.shard.Gap()
			m.mu.Unlock()
		},
		Resume: m.resume,
	})
	if err != nil {
		sess.Close()
		m.closeStore()
		return nil, fmt.Errorf("cache: subscribe invalidations: %w", err)
	}
	// Closing the session fails every handler's pending repository
	// round trip.
	m.Unblock = func() { m.repo.Close() }
	if m.store != nil {
		// The interval only bounds journal replay length: reshards
		// snapshot on their own, and Close lands a final one, so a clean
		// shutdown (SIGTERM included) never loses warmth to the journal
		// window.
		m.Every(cfg.SnapshotInterval, m.snapshotNow)
		m.Final = func() error {
			m.snapshotNow()
			return m.store.Close()
		}
	}

	if err := m.fetch(preload, start.Charge); err != nil {
		m.Close()
		return nil, fmt.Errorf("cache: preload: %w", err)
	}
	return m, nil
}

// fetch runs loads through the same singleflight and flights as
// decision loads, one frame of maxLoadBatch objects at a time, and
// waits for every one: a preload, or a reshard's or a resume's gains.
func (m *Middleware) fetch(loads []pendingLoad, charge bool) error {
	ctx := context.Background()
	for chunk := range slices.Chunk(loads, maxLoadBatch) {
		m.startLoads(ctx, chunk, charge)
		if err := awaitLoads(ctx, chunk); err != nil {
			return err
		}
	}
	return nil
}

// closeStore releases the persist store on constructor error paths.
func (m *Middleware) closeStore() {
	if m.store != nil {
		m.store.Close()
		m.store = nil
	}
}

// logStart reports what the policy's initialization did with the held
// recovered residents.
func (m *Middleware) logStart(r core.Start) {
	if r.Held == 0 {
		return
	}
	if r.WarmErr != nil {
		m.cfg.Logf("recovery warm-up: %v (restarting cold)", r.WarmErr)
	}
	m.recoveredWarm.Set(int64(r.Adopted))
	m.cfg.Logf("recovered warm: %d of %d residents re-adopted", r.Adopted, r.Held)
}

// persistState captures what only this node knows — its births and its
// residents, held ones included — under mu.
func (m *Middleware) persistState() *persist.State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &persist.State{Births: m.shard.Born(), Resident: m.shard.Residents()}
}

// snapshotNow lands a snapshot of the current state; errors are logged,
// not fatal (the journal still protects the delta since the last good
// snapshot).
func (m *Middleware) snapshotNow() {
	if m.store == nil {
		return
	}
	if err := m.store.WriteSnapshot(m.persistState()); err != nil {
		m.cfg.Logf("snapshot: %v", err)
	}
}

// journalPlan records a committed decision's residency changes in the
// durability journal. Admissions are journaled optimistically alongside
// the optimistic residency commit: a load that later fails leaves a
// stale admit behind, which recovery tolerates by design (residency is
// a warmth hint re-validated through Warm, not a durability contract).
// Journal errors are logged and never fail the query.
func (m *Middleware) journalPlan(p plan) {
	if m.store == nil {
		return
	}
	for _, id := range p.Evict {
		if err := m.store.AppendEvict(id); err != nil {
			m.cfg.Logf("journal evict %d: %v", id, err)
			return
		}
	}
	for _, o := range p.Load {
		if err := m.store.AppendAdmit(o.ID); err != nil {
			m.cfg.Logf("journal admit %d: %v", o.ID, err)
			return
		}
	}
}

// Ledger returns a snapshot of the cache's traffic accounting.
func (m *Middleware) Ledger() cost.Snapshot { return m.ledger.Snapshot() }

// Stats returns a stats message describing the node: its residents,
// policy and every counter and gauge /metrics exposes.
func (m *Middleware) Stats() netproto.StatsMsg {
	m.mu.Lock()
	cached := m.shard.Residents()
	policy := m.cfg.Policy.Name()
	m.mu.Unlock()
	// Values reads delta_cached_objects under m.mu: call it unlocked.
	return netproto.StatsMsg{
		Ledger:               m.ledger.Snapshot(),
		Cached:               cached,
		Policy:               policy,
		Queries:              m.queries.Value(),
		AtCache:              m.atCache.Value(),
		DroppedInvalidations: m.droppedInv.Value(),
		DedupedLoads:         m.dedupLoads.Value(),
		Metrics:              m.Reg.Values(),
	}
}

// streamFrame is the invalidation stream's handler: a notice reaches
// the policy (a cluster shard's only on an object it owns), and a
// standalone cache adopts announced births.
func (m *Middleware) streamFrame(f netproto.Frame) {
	ctx := context.Background()
	if birth, ok := f.Body.(netproto.ObjectBirthMsg); ok {
		if m.cfg.Shard {
			// A cluster shard adopts births only when its router grants
			// them (MsgBirthGrant): ownership of a newborn is the
			// router's assignment, not a broadcast.
			return
		}
		if _, err := m.AddObjects(ctx, birth.Births); err != nil {
			m.droppedInv.Inc()
			m.cfg.Logf("adopt births: %v", err)
		}
		return
	}
	inv, ok := f.Body.(netproto.InvalidateMsg)
	if !ok {
		m.cfg.Logf("invalidation stream sent %s", f.Type)
		return
	}
	m.mu.Lock()
	step, err := m.shard.Notice(&inv.Update)
	p := m.planLocked(step)
	m.mu.Unlock()
	if err == nil {
		err = m.executePlan(ctx, p)
	}
	if err != nil {
		m.droppedInv.Inc()
		m.cfg.Logf("apply notice of update %d: %v", inv.Update.ID, err)
	}
}

// resume is the invalidation stream's Resume: the node resumes cold
// (core.Shard.Resume), snapshots, so a restart cannot resurrect what it
// dropped, and a shard re-sends its owned set without awaiting the
// echo: until the repository installs it, the new stream is unfiltered,
// a superset. Births announced during the gap are missed.
func (m *Middleware) resume(sub *node.Subscription) {
	if err := m.repo.Redial(); err != nil {
		m.cfg.Logf("redial repository: %v", err)
	}
	m.mu.Lock()
	step, err := m.shard.Resume()
	p := m.planLocked(step)
	m.mu.Unlock()
	if err != nil {
		m.cfg.Logf("evict after the gap: %v; every query keeps shipping", err)
		return
	}
	m.snapshotNow()
	if m.cfg.Shard {
		sub.Send(m.filterFrame())
	}
	m.Go(func() {
		if err := m.fetch(p.loads, false); err != nil {
			m.cfg.Logf("reload after the gap: %v", err)
		}
	})
}

// orError turns a handler's failure into the MsgError reply its peer
// sees.
func orError(f netproto.Frame, err error) netproto.Frame {
	if err != nil {
		return netproto.ErrorFrame("%v", err)
	}
	return f
}

func (m *Middleware) handleClientFrame(f netproto.Frame) netproto.Frame {
	ctx := context.Background()
	switch body := f.Body.(type) {
	case netproto.QueryMsg:
		meta := queryMeta{traceID: body.TraceID, shard: -1}
		if len(body.Query.Objects) == 0 && !body.Region.Empty() {
			objs, detail, err := m.covers.Region(body.Region.RA, body.Region.Dec, body.Region.RadiusDeg)
			if err != nil {
				return netproto.ErrorFrame("cache: %v", err)
			}
			body.Query.Objects, meta.detail = objs, detail
		}
		return m.handleQuery(ctx, &body.Query, meta)
	case netproto.ShardQueryMsg:
		// A router-scattered fragment; objects are already restricted
		// to this shard's owned set (handleQuery verifies).
		meta := queryMeta{traceID: body.TraceID, shard: body.Shard, fragments: body.Fragments}
		return m.handleQuery(ctx, &body.Query, meta)
	case netproto.ObjectBirthMsg:
		return orError(m.handleBirths(ctx, body))
	case netproto.BirthGrantMsg:
		return orError(m.handleBirthGrant(ctx, body))
	case netproto.StatsMsg:
		return netproto.Frame{Type: netproto.MsgStats, Body: m.Stats()}
	case netproto.ReshardMsg:
		return orError(m.handleReshard(body))
	case netproto.ClusterStatsMsg:
		// A cluster-aware client talking to a single cache: answer as
		// a one-shard cluster so DialCluster is transparent both ways.
		stats := m.Stats()
		return netproto.Frame{Type: netproto.MsgClusterStats, Body: netproto.ClusterStatsMsg{
			Shards:    []netproto.ShardStats{{Shard: 0, Addr: m.Addr(), Alive: true, Stats: stats}},
			Aggregate: stats,
		}}
	default:
		return netproto.ErrorFrame("cache: client sent %s", f.Type)
	}
}

// queryMeta carries a query's routing and tracing context into
// handleQuery: who we are in the scatter (shard index and width, or a
// direct client query), the trace ID riding the request, and any hop
// detail accumulated before execution (cover-cache resolution).
type queryMeta struct {
	traceID   uint64
	shard     int // receiving shard index; -1 for a direct client query
	fragments int // scatter width the fragment arrived with; 0 direct
	detail    string
}

// span builds this hop's trace span: "fragment" when the query arrived
// through a router scatter, "cache" when it came straight from a
// client.
func (meta *queryMeta) span(node string, objects int, source string, elapsed time.Duration) netproto.TraceSpan {
	name := "cache"
	if meta.shard >= 0 {
		name = "fragment"
	}
	return netproto.TraceSpan{
		Name:      name,
		Node:      node,
		Shard:     meta.shard,
		Fragments: meta.fragments,
		Objects:   objects,
		Source:    source,
		Detail:    meta.detail,
		Elapsed:   elapsed,
	}
}

func (m *Middleware) handleQuery(ctx context.Context, q *model.Query, meta queryMeta) netproto.Frame {
	start := time.Now()
	m.queries.Inc()

	// Decision + bookkeeping under the lock; no I/O here.
	m.mu.Lock()
	step, err := m.shard.Query(q)
	p := m.planLocked(step)
	m.mu.Unlock()
	if err != nil {
		return netproto.ErrorFrame("%v", err)
	}

	// Repository I/O outside the lock. An at-cache answer the applier
	// found absent or stale fails closed: it ships.
	if p.ShipQuery || p.Stale {
		return m.shipQuery(ctx, q, meta, start, p)
	}
	if err := m.executePlan(ctx, p); err != nil {
		return netproto.ErrorFrame("apply: %v", err)
	}
	m.atCache.Inc()
	// A sibling query may have committed a load of one of our objects
	// that is still materializing; join it so a "cache" answer never
	// outruns the load it depends on.
	for _, id := range q.Objects {
		m.loads.wait(ctx, id)
	}
	var result netproto.QueryResultMsg
	result.QueryID = q.ID
	result.Logical = q.Cost
	result.Source = "cache"
	payload, release := netproto.NewPayload(m.cfg.Scale, q.Cost, int64(q.ID))
	result.Payload = payload
	result.Elapsed = time.Since(start)
	m.queryLat.Observe(result.Elapsed)
	if meta.traceID != 0 {
		result.TraceID = meta.traceID
		result.Spans = []netproto.TraceSpan{
			meta.span(m.Addr(), len(q.Objects), result.Source, result.Elapsed),
		}
		m.Traces.Add(meta.traceID, result.Spans)
	}
	return netproto.Frame{Type: netproto.MsgQueryResult, Body: result, Release: release}
}

// shipQuery answers q from the repository. The query travels while p's
// loads are in flight, but the reply waits for all of p's I/O: a failed
// load still fails the query, and the ledgers have settled by the time
// the client sees the answer.
func (m *Middleware) shipQuery(ctx context.Context, q *model.Query, meta queryMeta, start time.Time, p plan) netproto.Frame {
	m.shipped.Inc()
	m.startPlan(ctx, p)
	reply, shipErr := m.repo.RoundTrip(ctx, netproto.Frame{
		Type: netproto.MsgQuery,
		Body: netproto.QueryMsg{Query: *q, TraceID: meta.traceID},
	})
	res, ok := reply.Body.(netproto.QueryResultMsg)
	if shipErr == nil && !ok {
		shipErr = fmt.Errorf("repository replied %s", reply.Type)
	}
	if shipErr == nil {
		m.ledger.Charge(cost.QueryShip, q.Cost)
	}
	if err := m.finishPlan(ctx, p); err != nil {
		return netproto.ErrorFrame("apply: %v", err)
	}
	if shipErr != nil {
		return netproto.ErrorFrame("ship query: %v", shipErr)
	}
	res.Elapsed = time.Since(start)
	m.queryLat.Observe(res.Elapsed)
	if meta.traceID != 0 {
		// This hop's span leads; the repository's spans (already in
		// res.Spans) nest under it.
		res.TraceID = meta.traceID
		spans := append([]netproto.TraceSpan{
			meta.span(m.Addr(), len(q.Objects), res.Source, res.Elapsed),
		}, res.Spans...)
		res.Spans = spans
		m.Traces.Add(meta.traceID, spans)
	}
	return netproto.Frame{Type: netproto.MsgQueryResult, Body: res}
}

// handleBirths serves MsgObjectBirth on a standalone cache: publish the
// births to the repository (idempotent — the repository skips births it
// already ingested), then admit them into this node's own universe. A
// cluster shard refuses the frame: which shard owns a newborn is the
// router's placement, granted through MsgBirthGrant, so a birth
// published straight to a shard would make it claim objects the router
// routes elsewhere.
func (m *Middleware) handleBirths(ctx context.Context, body netproto.ObjectBirthMsg) (netproto.Frame, error) {
	if m.cfg.Shard {
		return netproto.Frame{}, fmt.Errorf("cache: this node is a cluster shard; publish births through the cluster router")
	}
	reply, err := m.repo.RoundTrip(ctx, netproto.Frame{
		Type: netproto.MsgObjectBirth,
		Body: netproto.ObjectBirthMsg{Births: body.Births},
	})
	if err != nil {
		return netproto.Frame{}, fmt.Errorf("cache: publish births: %w", err)
	}
	ack, ok := reply.Body.(netproto.ObjectBirthMsg)
	if !ok {
		return netproto.Frame{}, fmt.Errorf("cache: repository replied %s to births", reply.Type)
	}
	// Adopt the repository's canonical copies (trixel filled in), not
	// the publisher's raw ones, so this node places the newborn from
	// the same metadata every announcement-stream adopter sees. The
	// replied count is the repository's (how many were newly
	// published), which is deterministic — the announcement stream may
	// have adopted them here already.
	if _, err := m.AddObjects(ctx, ack.Births); err != nil {
		return netproto.Frame{}, err
	}
	return netproto.Frame{Type: netproto.MsgObjectBirth, Body: netproto.ObjectBirthMsg{
		Births:   ack.Births,
		Accepted: ack.Accepted,
	}}, nil
}

// handleBirthGrant serves MsgBirthGrant, the router's batched
// ownership grant: admit the whole batch into this shard's universe
// and owned set in one call, with no repository forward — the router
// grants only births the repository has already acknowledged or
// announced, so re-publishing them upstream would be a pure no-op
// round trip (K of them per birth on a replicated cluster). The reply
// reports how many births were newly admitted; grants are idempotent
// against the announcement stream and earlier grants.
func (m *Middleware) handleBirthGrant(ctx context.Context, body netproto.BirthGrantMsg) (netproto.Frame, error) {
	n, err := m.AddObjects(ctx, body.Births)
	if err != nil {
		return netproto.Frame{}, err
	}
	return netproto.Frame{Type: netproto.MsgBirthGrant, Body: netproto.BirthGrantMsg{
		Accepted: n,
		Epoch:    body.Epoch,
	}}, nil
}

// AddObjects admits newly published objects into the node's universe,
// live (core.Shard.Births), journals them, and executes any immediate
// decision the policy returns (Replica loads newborns). Births already
// known are skipped, so adoption is idempotent across the announcement
// stream and the router's grants. Returns how many births were new.
func (m *Middleware) AddObjects(ctx context.Context, births []model.Birth) (int, error) {
	m.mu.Lock()
	step, fresh, err := m.shard.Births(births)
	p := m.planLocked(step)
	m.mu.Unlock()
	if err != nil || len(fresh) == 0 {
		return 0, err
	}
	if m.store != nil {
		for _, b := range fresh {
			if jerr := m.store.AppendBirth(b); jerr != nil {
				m.cfg.Logf("journal birth %d: %v", b.Object.ID, jerr)
				break
			}
		}
	}
	// The adoption itself is done — the universe extended and the
	// policy knows the newborns — so it counts even if the immediate
	// decision below fails: a retry will correctly dedup against the
	// extended universe, and the counter must agree with it. A failed
	// birth load (Replica) rolls residency back exactly like any
	// failed load.
	m.bornObjects.Add(int64(len(fresh)))
	if err := m.covers.Grow(fresh); err != nil {
		m.cfg.Logf("resolver growth: %v (region covers may miss newborns)", err)
	}
	m.cfg.Logf("admitted %d born objects", len(fresh))
	if err := m.executePlan(ctx, p); err != nil {
		return len(fresh), fmt.Errorf("cache: execute birth decision: %w", err)
	}
	return len(fresh), nil
}

// planLocked counts and logs a step's violations and registers the
// loads it owes. mu must be held. Residency is optimistic: an accepted
// load is resident at once (local answers join its flight through
// loadGroup), and a flight that fails unloads its objects again.
func (m *Middleware) planLocked(s core.Step) plan {
	for _, v := range s.Violations {
		m.violations.Inc()
		m.cfg.Logf("decision violation: %s", v)
	}
	return plan{Plan: s.Plan, loads: m.registerLoads(s.Load)}
}

// registerLoads registers objs' loads with the node's singleflight. mu
// must be held.
func (m *Middleware) registerLoads(objs []model.Object) []pendingLoad {
	var loads []pendingLoad
	for _, o := range objs {
		loads = append(loads, m.registerLoad(o.ID))
	}
	return loads
}

// registerLoad joins id's in-flight load or registers a new one this
// caller leads.
func (m *Middleware) registerLoad(id model.ObjectID) pendingLoad {
	c, leader := m.loads.register(id)
	if !leader {
		m.dedupLoads.Inc()
	}
	return pendingLoad{id: id, call: c, leader: leader}
}

// executePlan performs the network I/O a committed decision owes before
// its caller goes on: startPlan, then finishPlan.
func (m *Middleware) executePlan(ctx context.Context, p plan) error {
	m.startPlan(ctx, p)
	return m.finishPlan(ctx, p)
}

// startPlan journals a committed decision and puts the loads it leads
// on the wire as one flight. It does not wait.
func (m *Middleware) startPlan(ctx context.Context, p plan) {
	m.journalPlan(p)
	m.startLoads(ctx, p.loads, true)
}

// finishPlan waits for every load the decision needs — its own flight's
// and those it joined — then ships its updates.
func (m *Middleware) finishPlan(ctx context.Context, p plan) error {
	if err := awaitLoads(ctx, p.loads); err != nil {
		return err
	}
	if len(p.Ship) > 0 {
		ids := make([]model.UpdateID, len(p.Ship))
		for i, u := range p.Ship {
			ids[i] = u.ID
		}
		reply, err := m.repo.RoundTrip(ctx, netproto.Frame{
			Type: netproto.MsgShipUpdates,
			Body: netproto.ShipUpdatesMsg{IDs: ids},
		})
		if err != nil {
			return fmt.Errorf("ship updates: %w", err)
		}
		ups, ok := reply.Body.(netproto.UpdatesMsg)
		if !ok {
			return fmt.Errorf("repository replied %s to update shipment", reply.Type)
		}
		var total cost.Bytes
		for _, u := range ups.Updates {
			total += u.Cost
		}
		m.ledger.Charge(cost.UpdateShip, total)
	}
	return nil
}

// startLoads starts one flight for the loads among loads that the
// caller leads: one goroutine and one batched round trip, detached from
// ctx's cancellation (a load serves every query that joins it, so the
// initiator's deadline must not abort it for the others). The flight
// settles every led call. On failure it first unloads every object it
// carried from the applier — the flight is the only place that knows the
// load definitively failed (waiters may have bailed on their own
// contexts while it was still going).
func (m *Middleware) startLoads(ctx context.Context, loads []pendingLoad, charge bool) {
	var led []pendingLoad
	for _, l := range loads {
		if l.leader {
			led = append(led, l)
		}
	}
	if len(led) == 0 {
		return
	}
	ctx = context.WithoutCancel(ctx)
	go func() {
		err := m.loadObjects(ctx, led, charge)
		if err != nil {
			m.mu.Lock()
			for _, l := range led {
				m.shard.Unload(l.id)
			}
			m.mu.Unlock()
		}
		m.loads.settle(led, err)
	}()
}

// loadObjects is the one MsgLoadObject round trip a flight makes.
func (m *Middleware) loadObjects(ctx context.Context, loads []pendingLoad, charge bool) error {
	start := time.Now()
	defer func() { m.loadLat.Observe(time.Since(start)) }()
	ids := make([]model.ObjectID, len(loads))
	for i, l := range loads {
		ids[i] = l.id
	}
	reply, err := m.repo.RoundTrip(ctx, netproto.Frame{
		Type: netproto.MsgLoadObject,
		Body: netproto.LoadObjectMsg{Objects: ids},
	})
	if err != nil {
		return fmt.Errorf("load %d objects (first %d): %w", len(ids), ids[0], err)
	}
	data, ok := reply.Body.(netproto.ObjectDataMsg)
	if !ok {
		return fmt.Errorf("repository replied %s to load", reply.Type)
	}
	if len(data.Objects) != len(ids) {
		return fmt.Errorf("repository answered a load of %d objects with %d", len(ids), len(data.Objects))
	}
	// The policy decided over this node's metadata; an object the
	// repository describes otherwise means the two were built from
	// different surveys, and the ledger would charge a size no decision
	// reasoned about.
	m.mu.Lock()
	for i, o := range data.Objects {
		if known, _ := m.shard.Object(ids[i]); o != known {
			m.mu.Unlock()
			return fmt.Errorf("load of object %d: the repository has %+v, this node has %+v", ids[i], o, known)
		}
	}
	m.mu.Unlock()
	if charge {
		var total cost.Bytes
		for _, o := range data.Objects {
			total += o.Size
		}
		m.ledger.Charge(cost.ObjectLoad, total)
	}
	return nil
}

// awaitLoads waits for every load in loads to settle, returning the
// first failure.
func awaitLoads(ctx context.Context, loads []pendingLoad) error {
	for _, l := range loads {
		if err := l.call.await(ctx); err != nil {
			return err
		}
	}
	return nil
}

// loadGroup is a minimal singleflight keyed by object ID: a load
// registered while another of the same object is in flight joins that
// flight instead of fetching again. A flight settles the calls it
// carried all at once; each waiter honors its own context.
type loadGroup struct {
	mu       sync.Mutex
	inflight map[model.ObjectID]*loadCall
}

type loadCall struct {
	done chan struct{}
	err  error
}

// register returns id's call, creating it if absent; leader reports
// whether the caller owns it and must put it in a flight.
func (g *loadGroup) register(id model.ObjectID) (c *loadCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight == nil {
		g.inflight = make(map[model.ObjectID]*loadCall)
	}
	if c, ok := g.inflight[id]; ok {
		return c, false
	}
	c = &loadCall{done: make(chan struct{})}
	g.inflight[id] = c
	return c, true
}

// settle ends a flight: its calls leave the in-flight table, take the
// flight's outcome, and wake their waiters.
func (g *loadGroup) settle(loads []pendingLoad, err error) {
	g.mu.Lock()
	for _, l := range loads {
		delete(g.inflight, l.id)
	}
	g.mu.Unlock()
	for _, l := range loads {
		l.call.err = err
		close(l.call.done)
	}
}

// await blocks until the flight settles or the waiter's own context
// expires (the flight keeps going for the other waiters).
func (c *loadCall) await(ctx context.Context) error {
	select {
	case <-c.done:
		return c.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// wait joins any in-flight load of id without starting one, so a
// locally answered query can't race ahead of the load it depends on.
// The flight's own error handling (residency rollback) is the
// leader's job; waiters just need it settled.
func (g *loadGroup) wait(ctx context.Context, id model.ObjectID) {
	g.mu.Lock()
	c, ok := g.inflight[id]
	g.mu.Unlock()
	if !ok {
		return
	}
	select {
	case <-c.done:
	case <-ctx.Done():
	}
}
