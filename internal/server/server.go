// Package server implements the repository node: it owns the survey's
// data objects, ingests the update pipeline, and serves the three
// data-communication mechanisms to the middleware cache — query
// execution, update shipping and object loading — over the netproto wire
// protocol. Caches additionally subscribe to an invalidation stream that
// carries update notices (control plane, not charged as traffic, per
// Section 3's invalidation model).
//
// Every connection opens with the same Hello → HelloAck handshake.
// Request connections then multiplex: every request runs on one of the
// connection's worker goroutines (replies carry the request's
// correlation ID and are serialized onto the socket by netproto.Conn),
// so a slow object load does not head-of-line-block cheap queries.
package server

import (
	"fmt"
	"sync"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/node"
	"github.com/deltacache/delta/internal/obs"
	"github.com/deltacache/delta/internal/persist"
)

// Config parameterizes a repository.
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// Survey provides objects and demo rows.
	Survey *catalog.Survey
	// Scale converts logical sizes to physical payload bytes.
	Scale netproto.PayloadScale
	// DataDir, when set, makes repository growth durable: ingested
	// births are journaled and snapshotted (internal/persist), and New
	// replays them into the survey so the grown universe survives
	// restarts. Empty disables persistence.
	DataDir string
	// SnapshotInterval paces the periodic snapshot loop when DataDir is
	// set (0 = 30s default); Close also snapshots.
	SnapshotInterval time.Duration
	// MetricsAddr, when set, binds the node's debug HTTP endpoint
	// (/metrics, /healthz, /debug/traces, /debug/pprof) on Start —
	// the -metrics-addr flag. Empty disables the listener; metrics and
	// traces are still collected.
	MetricsAddr string
	// Logf logs server events; nil silences.
	Logf func(format string, args ...any)
}

// Repository is a running repository node. The embedded runtime
// provides Start, Addr, DebugAddr and Close.
type Repository struct {
	*node.Node
	cfg    Config
	ledger cost.Ledger
	rows   *catalog.RowIndex

	mu      sync.Mutex
	updates map[model.UpdateID]model.Update
	// subscribers are the invalidation streams. Nil once Close has
	// closed their channels: no subscriber registers after.
	subscribers map[int]*subscriber
	nextSub     int

	// store is the durability layer for the grown universe (nil when
	// Config.DataDir is empty).
	store *persist.Store

	// Counters and gauges, declared on Reg in New; their help strings
	// there say what each counts. Stats reads them.
	queries, notices, droppedInvalidations, objectsBorn *obs.Counter
	recoveredBirths                                     *obs.Gauge
	execLat, loadLat, fsyncLat                          *obs.Histogram
}

// subscriber is one invalidation stream: the frames queued to it —
// update notices (MsgInvalidate), new-object announcements
// (MsgObjectBirth) and filter echoes (MsgReshard) — and the filter its
// cluster shard installed.
type subscriber struct {
	ch chan netproto.Frame
	c  *netproto.Conn
	// filter is nil until the subscriber sends its owned set; nil passes
	// every notice and announcement.
	filter *noticeFilter
}

// noticeFilter is a cluster shard's view of the update stream: the
// notices of the objects it owned when it sent the set, and of every
// object above horizon. The shard knew every object up to horizon, and
// a shard is granted only objects it did not know, so everything it
// may own before its next set lies in the filter.
type noticeFilter struct {
	owned   []uint64 // bit id-1 is set for every owned id ≤ horizon
	horizon model.ObjectID
}

// newNoticeFilter builds the filter for an owned set. No object above
// the repository's universe can be owned yet, so a horizon past it is
// lowered to it: that passes more notices, never fewer, and bounds the
// bitset by the universe whatever the peer sent.
func newNoticeFilter(owned []model.ObjectID, horizon model.ObjectID, universe int) *noticeFilter {
	horizon = max(0, min(horizon, model.ObjectID(universe)))
	f := &noticeFilter{owned: make([]uint64, (int(horizon)+63)/64), horizon: horizon}
	for _, id := range owned {
		if id >= 1 && id <= horizon {
			f.owned[(id-1)/64] |= 1 << ((id - 1) % 64)
		}
	}
	return f
}

// passes reports whether an update on obj is sent to the filter's
// subscriber. A nil filter passes everything.
func (f *noticeFilter) passes(obj model.ObjectID) bool {
	if f == nil || obj > f.horizon {
		return true
	}
	i := obj - 1
	return i >= 0 && f.owned[i/64]&(1<<(i%64)) != 0
}

// New validates the config and creates a repository (not yet listening).
func New(cfg Config) (*Repository, error) {
	if cfg.Survey == nil {
		return nil, fmt.Errorf("server: nil survey")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Repository{
		cfg:         cfg,
		rows:        catalog.NewRowIndex(cfg.Survey.SampleRows(2000, cfg.Survey.Config().Seed)),
		updates:     make(map[model.UpdateID]model.Update),
		subscribers: make(map[int]*subscriber),
	}
	r.Node = node.New("repository", cfg.Addr, cfg.MetricsAddr, cfg.Logf, r.handleRequest)
	r.Roles = map[string]node.Serve{
		"invalidations": r.serveInvalidations,
		"pipeline":      r.servePipeline,
		"cache":         nil, // request/reply over handleRequest
		"client":        nil,
	}
	r.Unblock = r.closeSubscribers
	r.execLat = r.Reg.NewHistogram("delta_repo_query_seconds",
		"Repository query execution latency.", nil)
	r.loadLat = r.Reg.NewHistogram("delta_repo_load_seconds",
		"Repository object-load latency.", nil)
	r.fsyncLat = r.Reg.NewHistogram("delta_journal_fsync_seconds",
		"Durability journal fsync latency.", nil)
	r.notices = r.Reg.NewCounter("delta_repo_notices_total",
		"Update notices queued to invalidation subscribers, after each subscriber's ownership filter.")
	r.queries = r.Reg.NewCounter("delta_queries_total",
		"Query requests this repository received, from caches and clients, refused ones included.")
	r.droppedInvalidations = r.Reg.NewCounter("delta_dropped_invalidations_total",
		"Invalidation streams cut because the subscriber's buffer was full.")
	r.objectsBorn = r.Reg.NewCounter("delta_objects_born_total",
		"Newly published objects ingested into the survey since start.")
	r.recoveredBirths = r.Reg.NewGauge("delta_recovered_warm",
		"Births replayed from disk into the survey at the last startup.")
	if cfg.DataDir != "" {
		store, err := persist.Open(persist.Options{
			Dir:         cfg.DataDir,
			Logf:        cfg.Logf,
			SyncObserve: r.fsyncLat.Observe,
		})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		recovered, err := store.Recover()
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		r.store = store
		if recovered != nil {
			// Replay the persisted births into the freshly built survey
			// in publication order (births carry dense sequential IDs, so
			// order is the ingest invariant). Births the survey already
			// knows — a DataDir shared with a survey that grew — skip
			// idempotently, like a duplicate publication would.
			replayed := 0
			for _, b := range recovered.Births {
				if err := cfg.Survey.AddObject(b); err != nil {
					if int(b.Object.ID) >= 1 && int(b.Object.ID) <= cfg.Survey.NumObjects() {
						continue
					}
					store.Close()
					return nil, fmt.Errorf("server: recover birth %d: %w", b.Object.ID, err)
				}
				replayed++
			}
			r.recoveredBirths.Set(int64(replayed))
			if replayed > 0 {
				cfg.Logf("recovered %d born objects from %s (universe now %d)",
					replayed, cfg.DataDir, cfg.Survey.NumObjects())
			}
		}
		// Land the post-recovery universe as the new baseline snapshot.
		if err := store.WriteSnapshot(r.persistState()); err != nil {
			store.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		r.Every(cfg.SnapshotInterval, r.snapshot)
		r.Final = func() error {
			r.snapshot()
			return store.Close()
		}
	}
	r.ExposeAccounting(&r.ledger, r.store)
	return r, nil
}

// persistState captures the repository's durable state: the grown
// universe as full-fidelity births (static base objects rebuild from
// the survey seed). No residents: the repository caches nothing.
func (r *Repository) persistState() *persist.State {
	return &persist.State{Births: r.cfg.Survey.BornObjects()}
}

// snapshot compacts the birth journal into a snapshot: periodically,
// and once more when Close has drained every handler, so a clean
// shutdown leaves nothing to replay.
func (r *Repository) snapshot() {
	if err := r.store.WriteSnapshot(r.persistState()); err != nil {
		r.cfg.Logf("snapshot: %v", err)
	}
}

// Ledger returns a snapshot of the server-side traffic accounting.
func (r *Repository) Ledger() cost.Snapshot { return r.ledger.Snapshot() }

// Subscribers reports how many invalidation subscribers are currently
// registered. A subscriber counts from before its HelloAck is sent, so
// it is already included when the subscribing constructor returns.
func (r *Repository) Subscribers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subscribers)
}

// DroppedInvalidations reports how many invalidation streams were cut
// because a subscriber's buffer was full.
func (r *Repository) DroppedInvalidations() int64 {
	return r.droppedInvalidations.Value()
}

// closeSubscribers is the runtime's Unblock hook: closing every
// subscriber channel ends its serveInvalidations loop.
func (r *Repository) closeSubscribers() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.subscribers {
		close(s.ch)
	}
	r.subscribers = nil
}

// ApplyUpdate ingests one pipeline update directly (the in-process
// pipeline path used by tests and the simulator bridge; the network path
// arrives via MsgUpdateFeed). This is the stream's one broadcast point
// for notices: each goes to the subscribers whose filter passes its
// object.
func (r *Repository) ApplyUpdate(u model.Update) {
	f := netproto.Frame{Type: netproto.MsgInvalidate, Body: netproto.InvalidateMsg{Update: u}}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.updates[u.ID] = u
	for id, s := range r.subscribers {
		if s.filter.passes(u.Object) && r.enqueueLocked(id, s, f) {
			r.notices.Inc()
		}
	}
}

// enqueueLocked queues f to subscriber id. Sends stay under the lock:
// subscriber channels are closed under it, and a send racing a close
// would panic. They cannot block the pipeline: a full buffer cuts the
// subscriber instead of dropping the frame. Its channel closes, it
// leaves the table, and its connection closes, so the consumer's Recv
// fails and it takes the gap path (fail closed, resubscribe) rather
// than answer past a notice it never got. Cuts count in
// DroppedInvalidations.
func (r *Repository) enqueueLocked(id int, s *subscriber, f netproto.Frame) bool {
	select {
	case s.ch <- f:
		return true
	default:
		r.droppedInvalidations.Inc()
		r.cfg.Logf("invalidation subscriber %d is %d frames behind; cutting its stream", id, cap(s.ch))
		delete(r.subscribers, id)
		close(s.ch)
		s.c.Close()
		return false
	}
}

// AddObjects ingests newly published data objects — the live growth
// the paper's rapidly-growing repository implies — and announces them
// on the invalidation stream so caches and routers extend their
// universes within one notification round trip. Births whose IDs are
// already in the catalog are skipped (publication is idempotent, so a
// client retry or a second publisher is harmless); a birth that is
// neither known nor next-in-sequence is an error. Returns how many
// births were newly ingested.
func (r *Repository) AddObjects(births []model.Birth) (int, error) {
	accepted := make([]model.Birth, 0, len(births))
	for _, b := range births {
		if err := r.cfg.Survey.AddObject(b); err != nil {
			if int(b.Object.ID) >= 1 && int(b.Object.ID) <= r.cfg.Survey.NumObjects() {
				continue // already published (dense IDs: a known ID is an ingested object)
			}
			return len(accepted), fmt.Errorf("server: add object %d: %w", b.Object.ID, err)
		}
		// Announce the stored copy: the catalog may have filled in the
		// trixel the birth inherits from its partition cell.
		obj, err := r.cfg.Survey.Object(b.Object.ID)
		if err == nil {
			b.Object = obj
		}
		accepted = append(accepted, b)
	}
	if len(accepted) == 0 {
		return 0, nil
	}
	if r.store != nil {
		for _, b := range accepted {
			if err := r.store.AppendBirth(b); err != nil {
				r.cfg.Logf("journal birth %d: %v", b.Object.ID, err)
				break
			}
		}
	}
	r.objectsBorn.Add(int64(len(accepted)))
	r.cfg.Logf("ingested %d new objects (universe now %d)", len(accepted), r.cfg.Survey.NumObjects())
	f := netproto.Frame{Type: netproto.MsgObjectBirth, Body: netproto.ObjectBirthMsg{Births: accepted}}
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, s := range r.subscribers {
		// A filtered subscriber is a cluster shard, which adopts a
		// newborn only when its router grants it.
		if s.filter == nil {
			r.enqueueLocked(id, s, f)
		}
	}
	return len(accepted), nil
}

func (r *Repository) servePipeline(c *netproto.Conn, hello netproto.Hello) error {
	if _, err := netproto.ServeHandshake(c, hello, 0); err != nil {
		return err
	}
	for {
		f, err := c.Recv()
		if err != nil {
			return netproto.IgnoreClosed(err)
		}
		switch body := f.Body.(type) {
		case netproto.UpdateFeedMsg:
			r.ApplyUpdate(body.Update)
		case netproto.ObjectBirthMsg:
			// The pipeline publishes new objects on its one-way stream;
			// ingest errors are logged, not replied (there is no reply
			// path), and idempotent skips are silent.
			if _, err := r.AddObjects(body.Births); err != nil {
				r.cfg.Logf("pipeline births: %v", err)
			}
		default:
			return fmt.Errorf("server: pipeline sent %s", f.Type)
		}
	}
}

// serveInvalidations registers the subscriber before acknowledging its
// Hello: the dialer returns from its handshake only after the ack, so
// every update applied after a subscribing constructor returns reaches
// that subscriber. A writer goroutine then sends the queued frames while
// this one watches the read side, so a subscriber that leaves gives up
// its slot at once — not when the next notice, which may never come,
// fails to send. The only frame a subscriber may send is its owned set
// (installFilter).
func (r *Repository) serveInvalidations(c *netproto.Conn, hello netproto.Hello) error {
	ch := make(chan netproto.Frame, 1024)
	r.mu.Lock()
	if r.subscribers == nil {
		r.mu.Unlock()
		return nil
	}
	id := r.nextSub
	r.nextSub++
	r.subscribers[id] = &subscriber{ch: ch, c: c}
	r.mu.Unlock()
	unregister := func() {
		r.mu.Lock()
		if _, ok := r.subscribers[id]; ok {
			delete(r.subscribers, id)
			close(ch)
		}
		r.mu.Unlock()
	}
	defer unregister()
	if _, err := netproto.ServeHandshake(c, hello, 0); err != nil {
		return err
	}
	var sendErr error
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for f := range ch {
			if sendErr = c.Send(f); sendErr != nil {
				c.Close() // wake the watcher below
				return
			}
		}
	}()
	var err error
	for err == nil {
		var f netproto.Frame
		if f, err = c.Recv(); err == nil {
			err = r.installFilter(id, f)
		}
	}
	unregister() // closes ch: the writer's range ends
	c.Close()    // a writer blocked on a peer that stopped reading fails now
	<-sent
	if sendErr != nil {
		err = sendErr
	}
	return netproto.IgnoreClosed(err)
}

// installFilter serves a frame subscriber id sent on its stream, which
// must be a cluster shard's owned set (MsgReshard): the filter replaces
// the subscriber's old one, and the frame's Epoch and effective Horizon
// are echoed back in-stream. Every notice queued before the echo passed
// the old filter and every notice after it passes the new one, so a
// shard that waits for the echo knows when a widened set is in force.
// An echo that finds the buffer full cuts the stream like any frame.
func (r *Repository) installFilter(id int, f netproto.Frame) error {
	body, ok := f.Body.(netproto.ReshardMsg)
	if !ok {
		return fmt.Errorf("server: invalidation subscriber sent %s", f.Type)
	}
	filter := newNoticeFilter(body.Owned, body.Horizon, r.cfg.Survey.NumObjects())
	echo := netproto.Frame{Type: netproto.MsgReshard, Body: netproto.ReshardMsg{
		Epoch:   body.Epoch,
		Horizon: filter.horizon,
	}}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.subscribers[id]
	if !ok {
		return nil // closing or cut: the next Recv fails
	}
	s.filter = filter
	r.enqueueLocked(id, s, echo) // a cut closes c: the next Recv fails
	return nil
}

// handleRequest executes one request frame and builds its reply (the
// reply's RequestID is the caller's business).
func (r *Repository) handleRequest(f netproto.Frame) netproto.Frame {
	switch body := f.Body.(type) {
	case netproto.QueryMsg:
		return r.execQuery(&body.Query, body.TraceID)
	case netproto.ShipUpdatesMsg:
		return r.shipUpdates(body.IDs)
	case netproto.LoadObjectMsg:
		return r.loadObjects(body.Objects)
	case netproto.ObjectBirthMsg:
		accepted, err := r.AddObjects(body.Births)
		if err != nil {
			return netproto.ErrorFrame("add objects: %v", err)
		}
		// Reply with the catalog's canonical copies (AddObjects fills
		// in the trixel a birth inherits from its partition cell):
		// forwarding nodes adopt from this reply, and every adopter —
		// publish path or announcement stream — must place the newborn
		// from identical metadata.
		canonical := make([]model.Birth, 0, len(body.Births))
		for _, b := range body.Births {
			if obj, err := r.cfg.Survey.Object(b.Object.ID); err == nil {
				b.Object = obj
			}
			canonical = append(canonical, b)
		}
		return netproto.Frame{Type: netproto.MsgObjectBirth, Body: netproto.ObjectBirthMsg{
			Births:   canonical,
			Accepted: accepted,
		}}
	case netproto.StatsMsg:
		return netproto.Frame{Type: netproto.MsgStats, Body: r.Stats()}
	default:
		return netproto.ErrorFrame("unsupported request %s", f.Type)
	}
}

// Stats snapshots the repository's StatsMsg view — what a MsgStats
// request returns: its ledger and every counter and gauge /metrics
// exposes.
func (r *Repository) Stats() netproto.StatsMsg {
	return netproto.StatsMsg{
		Ledger:               r.ledger.Snapshot(),
		Policy:               "repository",
		Queries:              r.queries.Value(),
		DroppedInvalidations: r.droppedInvalidations.Value(),
		Metrics:              r.Reg.Values(),
	}
}

func (r *Repository) execQuery(q *model.Query, traceID uint64) netproto.Frame {
	start := time.Now()
	r.queries.Inc()
	if len(q.Objects) == 0 {
		return netproto.ErrorFrame("query %d accesses no objects", q.ID)
	}
	for _, id := range q.Objects {
		if _, err := r.cfg.Survey.Object(id); err != nil {
			return netproto.ErrorFrame("query %d: %v", q.ID, err)
		}
	}
	r.ledger.Charge(cost.QueryShip, q.Cost)
	rows := r.sampleRowsFor(q.Objects)
	payload, release := netproto.NewPayload(r.cfg.Scale, q.Cost, int64(q.ID))
	elapsed := time.Since(start)
	r.execLat.Observe(elapsed)
	res := netproto.QueryResultMsg{
		QueryID: q.ID,
		Logical: q.Cost,
		Rows:    rows,
		Payload: payload,
		Source:  "repository",
		Elapsed: elapsed,
	}
	if traceID != 0 {
		res.TraceID = traceID
		res.Spans = []netproto.TraceSpan{{
			Name:    "repository",
			Node:    r.Addr(),
			Shard:   -1,
			Objects: len(q.Objects),
			Source:  "repository",
			Elapsed: elapsed,
		}}
		r.Traces.Add(traceID, res.Spans)
	}
	return netproto.Frame{Type: netproto.MsgQueryResult, Body: res, Release: release}
}

func (r *Repository) shipUpdates(ids []model.UpdateID) netproto.Frame {
	r.mu.Lock()
	var (
		ships []model.Update
		total cost.Bytes
	)
	for _, id := range ids {
		u, ok := r.updates[id]
		if !ok {
			r.mu.Unlock()
			return netproto.ErrorFrame("unknown update %d", id)
		}
		ships = append(ships, u)
		total += u.Cost
	}
	r.mu.Unlock()
	r.ledger.Charge(cost.UpdateShip, total)
	payload, release := netproto.NewPayload(r.cfg.Scale, total, int64(len(ids)))
	return netproto.Frame{Type: netproto.MsgUpdates, Body: netproto.UpdatesMsg{
		Updates: ships,
		Payload: payload,
	}, Release: release}
}

// loadObjects serves one batched load: every ID must resolve, or the
// whole frame errors and nothing is charged. The batch is charged once,
// for its summed size — the same ledger bytes as one charge per object.
func (r *Repository) loadObjects(ids []model.ObjectID) netproto.Frame {
	start := time.Now()
	defer func() { r.loadLat.Observe(time.Since(start)) }()
	if len(ids) == 0 {
		return netproto.ErrorFrame("load: no objects requested")
	}
	objs := make([]model.Object, len(ids))
	var total cost.Bytes
	for i, id := range ids {
		obj, err := r.cfg.Survey.Object(id)
		if err != nil {
			return netproto.ErrorFrame("load: %v", err)
		}
		objs[i] = obj
		total += obj.Size
	}
	r.ledger.Charge(cost.ObjectLoad, total)
	payload, release := netproto.NewPayload(r.cfg.Scale, total, int64(ids[0]))
	return netproto.Frame{Type: netproto.MsgObjectData, Body: netproto.ObjectDataMsg{
		Objects: objs,
		Payload: payload,
	}, Release: release}
}

// sampleRows bounds the demo rows returned with a query result.
const sampleRows = 8

func (r *Repository) sampleRowsFor(objs []model.ObjectID) []netproto.ResultRow {
	sample := r.rows.Sample(objs, sampleRows)
	if sample == nil {
		return nil
	}
	rows := make([]netproto.ResultRow, len(sample))
	for i, row := range sample {
		rows[i] = netproto.ResultRow{ObjID: row.ObjID, RA: row.RA, Dec: row.Dec, R: row.R}
	}
	return rows
}
