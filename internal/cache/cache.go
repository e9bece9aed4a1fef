// Package cache implements the Delta middleware node: the service that
// sits close to the clients, accepts their queries, and uses a
// decoupling policy (VCover by default) to decide, per query, whether to
// answer from its local object store, ship outstanding updates first, or
// ship the query to the repository — and, in the background, whether to
// load objects. It subscribes to the repository's invalidation stream so
// its policy sees every update the moment the repository ingests it (a
// cluster shard: every update on what it owns, filter.go).
//
// Every decision is applied to core.Applier, the simulator's own ground
// truth: a bad decision item is skipped as the simulator skips it, and
// an at-cache answer over an absent or stale object fails closed — the
// query ships. Each such violation counts in
// delta_decision_violations_total.
//
// Concurrency model: the policy's decision framework is sequential by
// design, so OnQuery/OnUpdate and the applier run under one mutex — but
// that critical section contains no network I/O. Query shipping, update
// shipping and object loads all execute outside the lock on a
// multiplexed repository session (a small connection pool with
// RequestID demultiplexing). A decision's loads
// travel as one batched round trip, which a shipped query overlaps, and
// per-object singleflight makes concurrent decisions that need the same
// object share one load. A client connection's requests run on its own
// bounded set of worker goroutines, so a query stalled on an object load
// never head-of-line-blocks its neighbors. If the invalidation stream
// is lost, the node fails closed: every query ships.
package cache

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
	// RepoPool is how many connections back the repository session
	// (each one multiplexes; 0 means a small default).
	RepoPool int
	// Policy decides; nil defaults to VCover (built via PolicyFactory
	// when that is set).
	Policy core.Policy
	// PolicyFactory builds a fresh policy instance for a resharded
	// universe: a live cluster resize swaps the node's policy
	// wholesale (the decision framework is Init-once by design), so a
	// node must know how to construct a new one. Nil disables live
	// resharding for this node. When Policy is nil and PolicyFactory
	// is set, the initial policy also comes from the factory.
	PolicyFactory func() core.Policy
	// Objects is the object universe (must match the repository's).
	Objects []model.Object
	// ObjectFilter, when non-nil, restricts this node to the objects
	// it owns: Objects is filtered through it before the policy sees
	// the universe, so a cluster shard's policy only reasons about
	// owned objects, and queries touching unowned objects are
	// rejected (they indicate a routing bug). Nil means the node owns
	// everything (the single-cache deployment).
	ObjectFilter func(model.ObjectID) bool
	// Capacity is the cache size.
	Capacity cost.Bytes
	// ReshardCapacity recomputes the node's capacity for a new owned
	// universe during a live reshard (e.g. a fixed fraction of the
	// owned data, or exactly its size for the replicated shape). Nil
	// keeps Capacity fixed across reshards.
	ReshardCapacity func(owned []model.Object) cost.Bytes
	// Replicas is the replication factor K the node serves under — how
	// many shards hold each object it owns. Informational: the
	// ownership math lives in the router's cluster.Ownership and
	// reaches the node through ObjectFilter/reshard frames; this value
	// surfaces in StatsMsg so operators and clients can audit the
	// deployed K. 0 is treated as 1 (unreplicated).
	Replicas int
	// Scale converts logical sizes to physical payloads.
	Scale netproto.PayloadScale
	// ExecDelay simulates the node-local scan time of a query answered
	// at the cache (the paper's cache runs real database scans; a
	// loopback deployment answers in microseconds). The delay holds a
	// dedicated per-node execution lock, modeling one serial execution
	// resource per cache node — which is what makes sharded-cluster
	// scaling measurable on one machine. Zero disables.
	ExecDelay time.Duration
	// Resolver maps a sky cap to the object IDs whose partitions may
	// intersect it (typically catalog.Survey.CoverCap). When set,
	// queries arriving with a SkyRegion instead of an object list are
	// resolved here, memoized through a bounded cover cache whose
	// hit/miss counters surface in StatsMsg. Nil rejects region
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
	// periodic snapshots of its warm state, and on startup replays
	// snapshot+journal to rejoin warm — the policy is rebuilt over the
	// persisted universe and residents are re-adopted through the same
	// core.Warmable boundary a live reshard uses, re-validated against
	// current ownership so a node restarted into a resized cluster
	// drops no-longer-owned state. Empty disables persistence.
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

	// mu guards the policy, the applier, the owned set and the reshard
	// epoch (all swapped together by a live reshard). The decision
	// framework is sequential by design; network I/O never happens under
	// this lock.
	mu     sync.Mutex
	policy core.Policy
	// applier holds what is resident and the updates outstanding on it;
	// events numbers the decisions applied to it.
	applier *core.Applier
	events  int64
	// reshardEpoch is the newest routing epoch this node has resharded
	// for; older MsgReshard frames (delayed retries from a superseded
	// resize) are rejected instead of clobbering newer state.
	reshardEpoch int

	// execMu implements Config.ExecDelay: one serial execution
	// resource per node.
	execMu sync.Mutex

	// owned is the filtered object universe (nil when the node owns
	// everything); guarded by mu since reshards replace it live.
	owned *idSet
	// byID indexes the known universe for reshard lookups; guarded by
	// mu since births and reshard metadata extend it live.
	byID *objectTable

	loads loadGroup

	// covers memoizes Resolver lookups (nil when no Resolver is set).
	covers *htm.CoverCache

	// store is the durability layer (nil when Config.DataDir is empty);
	// births holds every adopted birth in publication order (guarded by
	// mu) so snapshots carry full-fidelity growth for the next restart.
	store  *persist.Store
	births []model.Birth

	queries       atomic.Int64
	atCache       atomic.Int64
	shipped       atomic.Int64
	droppedInv    atomic.Int64
	dedupLoads    atomic.Int64
	migratedIn    atomic.Int64
	bornObjects   atomic.Int64
	recoveredWarm atomic.Int64
	replicas      atomic.Int64 // deployed replication factor K (≥ 1)

	queryLat   *obs.Histogram
	loadLat    *obs.Histogram
	fsyncLat   *obs.Histogram
	violations *obs.Counter

	inv *netproto.Conn // invalidation subscription
	// filter is the owned-set handshake on inv (cluster shards only;
	// filter.go).
	filter streamFilter
	// deaf is set once the invalidation stream is lost while the node is
	// not closing: no notice reaches the policy again, so every query
	// ships to the repository from then on.
	deaf atomic.Bool
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

// New builds the middleware, connects it to the repository, initializes
// the policy and subscribes to invalidations.
func New(cfg Config) (*Middleware, error) {
	if cfg.RepoAddr == "" {
		return nil, fmt.Errorf("cache: repository address required")
	}
	if len(cfg.Objects) == 0 {
		return nil, fmt.Errorf("cache: object universe required")
	}
	if cfg.RepoPool <= 0 {
		cfg.RepoPool = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Policy == nil {
		if cfg.PolicyFactory != nil {
			cfg.Policy = cfg.PolicyFactory()
		}
		if cfg.Policy == nil {
			cfg.Policy = core.NewVCover(core.DefaultVCoverConfig())
		}
	}
	m := &Middleware{
		cfg:    cfg,
		policy: cfg.Policy,
		byID:   newObjectTable(len(cfg.Objects)),
		filter: streamFilter{wake: make(chan struct{}, 1), lost: make(chan struct{})},
	}
	m.Node = node.New("cache", cfg.Addr, cfg.MetricsAddr, cfg.Logf, m.handleClientFrame)
	m.replicas.Store(int64(max(cfg.Replicas, 1)))
	if cfg.Resolver != nil {
		m.covers = htm.NewCoverCache(256)
	}
	m.queryLat = m.Reg.NewHistogram("delta_query_seconds",
		"End-to-end query handling latency at this cache node (fragment or whole query).", nil)
	m.loadLat = m.Reg.NewHistogram("delta_load_seconds",
		"Repository object-load round-trip latency.", nil)
	m.fsyncLat = m.Reg.NewHistogram("delta_journal_fsync_seconds",
		"Durability journal fsync latency.", nil)
	m.violations = m.Reg.NewCounter("delta_decision_violations_total",
		"Decision items the applier skipped and at-cache answers it shipped instead (absent or stale objects).")
	obs.RegisterStats(m.Reg, func() (netproto.StatsMsg, error) { return m.Stats(), nil })
	for _, o := range cfg.Objects {
		m.byID.put(o)
	}

	// Recover the previous incarnation's state before the policy sees
	// any universe: born objects the static config cannot rebuild must
	// be part of what Init reasons about, and residents re-adopt through
	// core.Warmable, which only works on a freshly initialized policy
	// (the same contract a live reshard relies on).
	var recovered *persist.State
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
		if recovered, err = store.Recover(); err != nil {
			store.Close()
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	// Universe metadata beyond the static config: born objects and
	// reshard arrivals from the persisted state. Everything
	// merges into byID (reshard lookups need the metadata regardless of
	// ownership); only what the node owns joins the policy universe.
	var extras []model.Object
	recoveredOwned := make(map[model.ObjectID]struct{})
	if recovered != nil {
		for _, o := range recovered.Universe {
			if !m.byID.has(o.ID) {
				m.byID.put(o)
				extras = append(extras, o)
			}
		}
		slices.SortFunc(extras, func(a, b model.Object) int { return cmp.Compare(a.ID, b.ID) })
		for _, id := range recovered.Owned {
			recoveredOwned[id] = struct{}{}
		}
	}

	universe := cfg.Objects
	if cfg.ObjectFilter != nil {
		universe = make([]model.Object, 0, len(cfg.Objects))
		m.owned = newIDSet(len(cfg.Objects))
		for _, o := range cfg.Objects {
			if cfg.ObjectFilter(o.ID) {
				universe = append(universe, o)
				m.owned.add(o.ID)
			}
		}
		if len(universe) == 0 {
			m.closeStore()
			return nil, fmt.Errorf("cache: object filter leaves the shard empty")
		}
	}
	for _, o := range extras {
		// Ownership revalidation for recovered objects: the current
		// filter (computed from the current cluster shape) decides, with
		// persisted grants honored for newborns the static filter cannot
		// know — the next reshard from the router settles any remainder.
		if cfg.ObjectFilter != nil {
			_, granted := recoveredOwned[o.ID]
			if !granted && !cfg.ObjectFilter(o.ID) {
				continue
			}
			m.owned.add(o.ID)
		}
		universe = append(universe, o)
	}
	capacity := cfg.Capacity
	if len(extras) > 0 && cfg.ReshardCapacity != nil {
		// The boot capacity was computed over the static universe; a
		// recovered grown universe resizes it the same way a reshard
		// would.
		capacity = cfg.ReshardCapacity(universe)
	}
	if err := m.policy.Init(universe, capacity); err != nil {
		m.closeStore()
		return nil, fmt.Errorf("cache: %w", err)
	}
	m.applier = core.NewApplier(capacity, m.sizeOf)
	if recovered != nil {
		m.adoptRecovered(recovered)
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
	dial := netproto.SessionConfig{PoolSize: cfg.RepoPool, DialRetry: repoDialRetry}
	sess, err := netproto.DialSession(cfg.RepoAddr, "cache", dial)
	if err != nil {
		m.closeStore()
		return nil, fmt.Errorf("cache: dial repository: %w", err)
	}
	m.repo = sess

	// Invalidation subscription (a one-way stream). The repository acks
	// the handshake only after registering the subscriber, so every
	// update applied once New returns is delivered here.
	m.inv, err = netproto.DialConn(cfg.RepoAddr, "invalidations", dial)
	if err != nil {
		sess.Close()
		m.closeStore()
		return nil, fmt.Errorf("cache: subscribe invalidations: %w", err)
	}
	// Closing the session and the stream fails every handler's pending
	// repository round trip and ends the invalidation loop.
	m.Unblock = func() {
		m.repo.Close()
		m.inv.Close()
	}
	m.Go(func() { m.invalidationLoop(m.inv) })
	if m.owned != nil {
		// A cluster shard asks for its own objects' notices only; once
		// New returns, the repository filters this stream.
		m.filter.mu.Lock()
		m.awaitFilter(m.sendFilter(nil))
		m.filter.mu.Unlock()
	}
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

	// Apply any preload the policy requests (Replica/SOptimal) through
	// the same singleflight and flights as decision loads, one frame of
	// maxLoadBatch objects at a time. Objects a recovery already adopted
	// stay as they are.
	if pre, ok := m.policy.(core.Preloader); ok {
		objs, charge := pre.Preload()
		m.mu.Lock()
		objs = slices.DeleteFunc(slices.Clone(objs), m.applier.Resident)
		err := m.applier.Preload(objs)
		m.mu.Unlock()
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("cache: %w", err)
		}
		for chunk := range slices.Chunk(objs, maxLoadBatch) {
			loads := make([]pendingLoad, len(chunk))
			for i, id := range chunk {
				loads[i] = m.registerLoad(id)
			}
			m.startLoads(context.Background(), loads, charge)
			if err := awaitLoads(context.Background(), loads); err != nil {
				m.Close()
				return nil, fmt.Errorf("cache: preload: %w", err)
			}
		}
	}
	return m, nil
}

// closeStore releases the persist store on constructor error paths.
func (m *Middleware) closeStore() {
	if m.store != nil {
		m.store.Close()
		m.store = nil
	}
}

// adoptRecovered restores the previous incarnation's warm state onto a
// freshly initialized policy. Residents are re-validated against the
// current universe — ownership included, so a node restarted into a
// resized cluster drops no-longer-owned state here for free — and
// offered through core.Warmable, the same carry-over boundary a live
// reshard uses; the policy adopts what fits its capacity. Policies
// without Warm (SOptimal, NoCache) simply restart cold.
func (m *Middleware) adoptRecovered(st *persist.State) {
	m.reshardEpoch = st.Epoch
	m.births = slices.Clone(st.Births)
	carried := make([]model.ObjectID, 0, len(st.Resident))
	for _, id := range st.Resident {
		if m.owned != nil {
			if !m.owned.has(id) {
				continue
			}
		} else if !m.byID.has(id) {
			continue
		}
		carried = append(carried, id)
	}
	slices.Sort(carried)
	if w, ok := m.policy.(core.Warmable); ok && len(carried) > 0 {
		adopted, err := w.Warm(carried)
		if err != nil {
			m.cfg.Logf("recovery warm-up: %v (restarting cold)", err)
			adopted = nil
		}
		if err := m.applier.Preload(adopted); err != nil {
			m.cfg.Logf("recovery warm-up: %v", err)
		}
		m.recoveredWarm.Store(int64(len(adopted)))
	}
	if len(st.Births) > 0 && m.covers != nil && m.cfg.ResolverGrow != nil {
		// The resolver was built from the startup survey; recovered
		// births must rejoin its universe or region covers would exclude
		// them until the next live birth.
		if err := m.cfg.ResolverGrow(st.Births); err != nil {
			m.cfg.Logf("recovery resolver growth: %v (region covers may miss recovered newborns)", err)
		}
		m.covers.Bump()
	}
	m.cfg.Logf("recovered warm: epoch %d, %d births, %d/%d residents re-adopted",
		st.Epoch, len(st.Births), m.recoveredWarm.Load(), len(st.Resident))
}

// persistState captures the node's durable state under mu.
func (m *Middleware) persistState() *persist.State {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &persist.State{
		Epoch:    m.reshardEpoch,
		Births:   slices.Clone(m.births),
		Universe: make([]model.Object, 0, m.byID.len()),
	}
	for o := range m.byID.all() {
		st.Universe = append(st.Universe, o)
	}
	slices.SortFunc(st.Universe, func(a, b model.Object) int { return cmp.Compare(a.ID, b.ID) })
	if m.owned != nil {
		st.Owned = make([]model.ObjectID, 0, m.owned.len())
		for id := range m.owned.all() {
			st.Owned = append(st.Owned, id)
		}
		slices.Sort(st.Owned)
	}
	st.Resident = m.applier.Residents()
	return st
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

// Stats returns a stats message describing the node.
func (m *Middleware) Stats() netproto.StatsMsg {
	m.mu.Lock()
	cached := m.applier.Residents()
	policy := m.policy.Name()
	m.mu.Unlock()
	stats := netproto.StatsMsg{
		Ledger:               m.ledger.Snapshot(),
		Cached:               cached,
		Policy:               policy,
		Queries:              m.queries.Load(),
		AtCache:              m.atCache.Load(),
		Shipped:              m.shipped.Load(),
		DroppedInvalidations: m.droppedInv.Load(),
		DedupedLoads:         m.dedupLoads.Load(),
		MigratedIn:           m.migratedIn.Load(),
		ObjectsBorn:          m.bornObjects.Load(),
		RecoveredWarm:        m.recoveredWarm.Load(),
		Replicas:             m.replicas.Load(),
	}
	if m.covers != nil {
		stats.CoverCacheHits, stats.CoverCacheMisses = m.covers.Stats()
	}
	if m.store != nil {
		stats.SnapshotAge = m.store.SnapshotAge()
		stats.JournalRecords = m.store.JournalRecords()
	}
	return stats
}

func (m *Middleware) invalidationLoop(c *netproto.Conn) {
	defer close(m.filter.lost)
	ctx := context.Background()
	for {
		f, err := c.Recv()
		if err != nil {
			select {
			case <-m.Done():
			default:
				// Deaf, not closing: residents can go stale with nothing
				// to tell the policy, so fail closed and ship every query
				// rather than answer from them. The node does not
				// resubscribe.
				m.deaf.Store(true)
				m.cfg.Logf("invalidation stream lost: %v; every query ships to the repository", err)
			}
			return
		}
		if _, ok := f.Body.(netproto.ReshardMsg); ok {
			m.filterEchoed()
			continue
		}
		if birth, ok := f.Body.(netproto.ObjectBirthMsg); ok {
			m.mu.Lock()
			sharded := m.owned != nil
			m.mu.Unlock()
			if sharded {
				// A cluster shard adopts births only when its router
				// grants them (MsgBirthGrant): ownership of a newborn is
				// the router's assignment, not a broadcast.
				continue
			}
			if _, err := m.AddObjects(ctx, birth.Births); err != nil {
				m.droppedInv.Add(1)
				m.cfg.Logf("adopt births: %v", err)
			}
			continue
		}
		inv, ok := f.Body.(netproto.InvalidateMsg)
		if !ok {
			m.cfg.Logf("invalidation stream sent %s", f.Type)
			continue
		}
		m.mu.Lock()
		if m.owned != nil {
			if !m.owned.has(inv.Update.Object) {
				// Not ours (not a drop): the repository's filter passes
				// a superset of what this shard owns — the union while a
				// reshard narrows, every object above the horizon, the
				// whole stream until the first echo.
				m.mu.Unlock()
				continue
			}
		}
		d, err := m.policy.OnUpdate(&inv.Update)
		if err != nil {
			m.mu.Unlock()
			m.droppedInv.Add(1)
			m.cfg.Logf("policy OnUpdate: %v", err)
			continue
		}
		p := m.applyLocked(model.Event{Kind: model.EventUpdate, Update: &inv.Update}, d)
		m.mu.Unlock()
		if err := m.executePlan(ctx, p); err != nil {
			m.droppedInv.Add(1)
			m.cfg.Logf("apply update decision: %v", err)
		}
	}
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
			objs, hit, err := m.resolveRegion(body.Region)
			if err != nil {
				return netproto.ErrorFrame("%v", err)
			}
			body.Query.Objects = objs
			if hit {
				meta.detail = "cover-cache=hit"
			} else {
				meta.detail = "cover-cache=miss"
			}
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

// resolveRegion maps a query's sky region to B(q) through the memoized
// cover cache (also reporting whether the cover was memoized, for the
// trace span). A node with no resolver cannot serve region queries.
func (m *Middleware) resolveRegion(region netproto.SkyRegion) ([]model.ObjectID, bool, error) {
	if m.cfg.Resolver == nil {
		return nil, false, fmt.Errorf("cache: node has no region resolver; send explicit object lists")
	}
	objs, hit := m.covers.ResolveHit(
		geom.CapFromRADec(region.RA, region.Dec, region.RadiusDeg), m.cfg.Resolver)
	if len(objs) == 0 {
		return nil, hit, fmt.Errorf("cache: region (%v, %v, r=%v°) covers no objects",
			region.RA, region.Dec, region.RadiusDeg)
	}
	return objs, hit, nil
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
	m.queries.Add(1)

	// Decision + bookkeeping under the lock; no I/O here. The owned
	// check shares the critical section because a live reshard swaps
	// the owned set and the policy together.
	m.mu.Lock()
	if m.owned != nil {
		for _, id := range q.Objects {
			if !m.owned.has(id) {
				m.mu.Unlock()
				return netproto.ErrorFrame("query %d touches object %d not owned by this shard", q.ID, id)
			}
		}
	}
	if m.deaf.Load() {
		// No notice reaches the policy any more, so its view of
		// currency is blind: ship without consulting it.
		m.mu.Unlock()
		return m.shipQuery(ctx, q, meta, start, plan{})
	}
	d, err := m.policy.OnQuery(q)
	if err != nil {
		m.mu.Unlock()
		return netproto.ErrorFrame("policy: %v", err)
	}
	p := m.applyLocked(model.Event{Kind: model.EventQuery, Query: q}, d)
	m.mu.Unlock()

	// Repository I/O outside the lock. An at-cache answer the applier
	// found absent or stale fails closed: it ships.
	if p.ShipQuery || p.Stale {
		return m.shipQuery(ctx, q, meta, start, p)
	}
	if err := m.executePlan(ctx, p); err != nil {
		return netproto.ErrorFrame("apply: %v", err)
	}
	m.atCache.Add(1)
	// A sibling query may have committed a load of one of our objects
	// that is still materializing; join it so a "cache" answer never
	// outruns the load it depends on.
	for _, id := range q.Objects {
		m.loads.wait(ctx, id)
	}
	if m.cfg.ExecDelay > 0 {
		m.execMu.Lock()
		time.Sleep(m.cfg.ExecDelay)
		m.execMu.Unlock()
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
	m.shipped.Add(1)
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
	m.mu.Lock()
	sharded := m.owned != nil
	m.mu.Unlock()
	if sharded {
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
// live: the policy's universe extends (core.Grower), the owned set
// grows when the node is a cluster shard (the router grants a birth
// only to its owning shards), and any immediate decision the policy
// returns (Replica loads newborns) is executed. Births already known
// are skipped, so adoption is idempotent across the announcement
// stream and the router's grants. Returns how many births were new.
func (m *Middleware) AddObjects(ctx context.Context, births []model.Birth) (int, error) {
	m.mu.Lock()
	fresh := make([]model.Object, 0, len(births))
	freshBirths := make([]model.Birth, 0, len(births))
	for _, b := range births {
		if m.byID.has(b.Object.ID) {
			continue
		}
		fresh = append(fresh, b.Object)
		freshBirths = append(freshBirths, b)
	}
	if len(fresh) == 0 {
		m.mu.Unlock()
		return 0, nil
	}
	grower, ok := m.policy.(core.Grower)
	if !ok {
		m.mu.Unlock()
		return 0, fmt.Errorf("cache: policy %s cannot grow its universe", m.policy.Name())
	}
	d, err := grower.AddObjects(fresh)
	if err != nil {
		m.mu.Unlock()
		return 0, fmt.Errorf("cache: policy admit births: %w", err)
	}
	for _, o := range fresh {
		m.byID.put(o)
		if m.owned != nil {
			m.owned.add(o.ID)
		}
	}
	m.births = append(m.births, freshBirths...)
	p := m.applyLocked(model.Event{Kind: model.EventBirth}, d)
	universe := m.byID.len()
	m.mu.Unlock()
	if m.store != nil {
		for _, b := range freshBirths {
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
	if m.covers != nil {
		// Extend the resolver's universe first, then drop memoized
		// covers: a newborn can join any region's cover, and a recompute
		// against the pre-growth resolver would just re-memoize its
		// absence.
		if m.cfg.ResolverGrow != nil {
			if err := m.cfg.ResolverGrow(freshBirths); err != nil {
				m.cfg.Logf("resolver growth: %v (region covers may miss newborns)", err)
			}
		}
		m.covers.Bump()
	}
	m.cfg.Logf("admitted %d born objects (universe now %d)", len(fresh), universe)
	if err := m.executePlan(ctx, p); err != nil {
		return len(fresh), fmt.Errorf("cache: execute birth decision: %w", err)
	}
	return len(fresh), nil
}

// applyLocked applies d to the applier as the node's next event, counts
// and logs its violations, and registers the loads it owes. mu must be
// held. Residency is optimistic: an accepted load is resident at once
// (local answers join its flight through loadGroup), and a flight that
// fails unloads its objects again.
func (m *Middleware) applyLocked(e model.Event, d core.Decision) plan {
	m.events++
	e.Seq = m.events
	ap, violations := m.applier.Apply(&e, d)
	for _, v := range violations {
		m.violations.Inc()
		m.cfg.Logf("decision violation: %s", v)
	}
	p := plan{Plan: ap}
	for _, o := range ap.Load {
		p.loads = append(p.loads, m.registerLoad(o.ID))
	}
	return p
}

// sizeOf is the applier's view of the universe: byID, under mu.
func (m *Middleware) sizeOf(id model.ObjectID) (cost.Bytes, bool) {
	o, ok := m.byID.get(id)
	return o.Size, ok
}

// registerLoad joins id's in-flight load or registers a new one this
// caller leads.
func (m *Middleware) registerLoad(id model.ObjectID) pendingLoad {
	c, leader := m.loads.register(id)
	if !leader {
		m.dedupLoads.Add(1)
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
				m.applier.Unload(l.id)
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
