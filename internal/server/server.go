// Package server implements the repository node: it owns the survey's
// data objects, applies the updates its in-process pipeline hands it
// (ApplyUpdate), and serves the three data-communication mechanisms to
// the middleware cache — query execution, update shipping and object
// loading — over the netproto wire protocol. Caches additionally subscribe to an invalidation stream that
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
	// restarts: a snapshot every node.DefaultInterval and one more on
	// Close. Empty disables persistence.
	DataDir string
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
	queries, notices, filtered, droppedInvalidations, objectsBorn *obs.Counter
	recoveredBirths                                               *obs.Gauge
	execLat, loadLat, fsyncLat                                    *obs.Histogram
}

// subscriber is one invalidation stream: the frames queued to it —
// update notices (MsgInvalidate), new-object announcements
// (MsgObjectBirth, on a cache's or router's stream only) and echoes
// (MsgInterest) — and the objects it registered.
type subscriber struct {
	ch chan netproto.Frame
	c  *netproto.Conn
	// stream is the name its Hello gave it (Hello.Stream), which a load
	// names to register its objects here; 0 names none.
	stream int64
	// shard marks a cluster shard's stream ("shard-invalidations"): it
	// gets no announcements, since a shard adopts a newborn only when its
	// router grants it.
	shard bool
	// interest starts empty on every stream: it passes the notices of
	// what the subscriber registered and nothing else.
	interest interestSet
}

// interestSet holds the objects a subscriber registered (MsgInterest),
// bit id-1 per object.
type interestSet []uint64

// update registers ids and unregisters drop, ignoring IDs outside the
// universe: a subscriber learns an object only from the repository, so
// it cannot name one the repository does not have, and the bitset stays
// bounded by the universe whatever the peer sent.
func (s interestSet) update(ids, drop []model.ObjectID, universe int) interestSet {
	for _, id := range ids {
		if id < 1 || int(id) > universe {
			continue
		}
		i := int(id - 1)
		if w := i/64 + 1; w > len(s) {
			s = append(s, make(interestSet, w-len(s))...)
		}
		s[i/64] |= 1 << (i % 64)
	}
	for _, id := range drop {
		if i := int(id - 1); id >= 1 && i/64 < len(s) {
			s[i/64] &^= 1 << (i % 64)
		}
	}
	return s
}

// passes reports whether an update on obj is sent to the subscriber.
func (s interestSet) passes(obj model.ObjectID) bool {
	i := int(obj - 1)
	return i >= 0 && i/64 < len(s) && s[i/64]&(1<<(i%64)) != 0
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
		"invalidations":       r.serveInvalidations,
		"shard-invalidations": r.serveInvalidations,
		"cache":               nil, // request/reply over handleRequest
		"client":              nil,
	}
	r.Unblock = r.closeSubscribers
	r.execLat = r.Reg.NewHistogram("delta_repo_query_seconds",
		"Repository query execution latency.")
	r.loadLat = r.Reg.NewHistogram("delta_repo_load_seconds",
		"Repository object-load latency.")
	r.fsyncLat = r.Reg.NewHistogram("delta_journal_fsync_seconds",
		"Durability journal fsync latency.")
	r.notices = r.Reg.NewCounter("delta_repo_notices_total",
		"Update notices queued to invalidation subscribers, after each subscriber's registered interest.")
	r.filtered = r.Reg.NewCounter("delta_repo_notices_filtered_total",
		"Update notices withheld from an invalidation subscriber because it had not registered the object (PROTOCOL.md, \"Registrations\"); never a dropped notice.")
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
			// in publication order. Births the survey already knows — a
			// DataDir shared with a survey that grew — skip, like a
			// duplicate publication would.
			replayed, err := cfg.Survey.AddObjects(recovered.Births)
			if err != nil {
				store.Close()
				return nil, fmt.Errorf("server: recover births: %w", err)
			}
			r.recoveredBirths.Set(int64(len(replayed)))
			if len(replayed) > 0 {
				cfg.Logf("recovered %d born objects from %s (universe now %d)",
					len(replayed), cfg.DataDir, cfg.Survey.NumObjects())
			}
		}
		// Land the post-recovery universe as the new baseline snapshot.
		if err := store.WriteSnapshot(r.persistState()); err != nil {
			store.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		r.Every(r.snapshot)
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

// ApplyUpdate ingests one pipeline update. It is the only way an update
// enters the repository: the pipeline runs in process (delta-server
// -pipeline-rate, the benchmark's trace replay, tests), and no frame
// carries updates in. This is the stream's one broadcast point for
// notices: each goes to the subscribers whose interest passes its
// object.
func (r *Repository) ApplyUpdate(u model.Update) {
	f := netproto.Frame{Type: netproto.MsgInvalidate, Body: netproto.InvalidateMsg{Update: u}}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.updates[u.ID] = u
	for id, s := range r.subscribers {
		switch {
		case !s.interest.passes(u.Object):
			r.filtered.Inc()
		case r.enqueueLocked(id, s, f):
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
// neither known nor next-in-sequence is an error, and the births
// before it are still journaled and announced. Returns how many
// births were newly ingested.
func (r *Repository) AddObjects(births []model.Birth) (int, error) {
	// The stored copies are announced: the catalog may have filled in
	// the trixel a birth inherits from its partition cell.
	accepted, err := r.cfg.Survey.AddObjects(births)
	if err != nil {
		err = fmt.Errorf("server: add objects: %w", err)
	}
	if len(accepted) == 0 {
		return 0, err
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
		if !s.shard {
			r.enqueueLocked(id, s, f)
		}
	}
	return len(accepted), err
}

// serveInvalidations registers the subscriber before acknowledging its
// Hello: the dialer returns from its handshake only after the ack, so
// every update applied after a subscribing constructor returns reaches
// that subscriber. A writer goroutine then sends the queued frames while
// this one watches the read side, so a subscriber that leaves gives up
// its slot at once — not when the next notice, which may never come,
// fails to send. A subscriber may send its registrations
// (updateInterest), nothing else.
func (r *Repository) serveInvalidations(c *netproto.Conn, hello netproto.Hello) error {
	ch := make(chan netproto.Frame, 1024)
	r.mu.Lock()
	if r.subscribers == nil {
		r.mu.Unlock()
		return nil
	}
	id := r.nextSub
	r.nextSub++
	r.subscribers[id] = &subscriber{ch: ch, c: c, stream: hello.Stream, shard: hello.Role == "shard-invalidations"}
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
			err = r.subscriberFrame(id, f)
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

// subscriberFrame serves a frame subscriber id sent on its stream: a
// registration (MsgInterest), whose IDs join the subscriber's interest
// set and whose drops leave it. The frame is echoed in-stream, with no
// IDs, under the lock the broadcast holds: every notice queued before
// the echo passed the old set and every notice after it passes the new
// one, so a subscriber that waits for the echo knows when a
// registration is in force. An echo that finds the buffer full cuts the
// stream like any frame, closing its connection, so the next Recv
// fails.
func (r *Repository) subscriberFrame(id int, f netproto.Frame) error {
	body, ok := f.Body.(netproto.InterestMsg)
	if !ok {
		return fmt.Errorf("server: invalidation subscriber sent %s", f.Type)
	}
	universe := r.cfg.Survey.NumObjects()
	echo := netproto.Frame{Type: netproto.MsgInterest, Body: netproto.InterestMsg{}}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.subscribers[id]; ok { // else closing or cut: the next Recv fails
		s.interest = s.interest.update(body.Objects, body.Drop, universe)
		r.enqueueLocked(id, s, echo)
	}
	return nil
}

// registerLoad registers a load's objects on the stream it names, under
// the lock the broadcast holds and before the load is served: every
// update applied earlier is in the loaded copy, and every later one
// passes the subscriber's set, so the load's reply is the
// registration's echo. A stream no subscriber has is gone, and its
// consumer's gap path evicts what it loaded: the load registers nothing.
func (r *Repository) registerLoad(stream int64, ids []model.ObjectID) {
	universe := r.cfg.Survey.NumObjects()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.subscribers {
		if s.stream == stream {
			s.interest = s.interest.update(ids, nil, universe)
			return
		}
	}
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
		if body.Stream != 0 {
			r.registerLoad(body.Stream, body.Objects)
		}
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
	case netproto.UniverseMsg:
		return netproto.Frame{Type: netproto.MsgUniverse, Body: netproto.UniverseMsg{
			Survey: r.cfg.Survey.Config(),
			Births: r.cfg.Survey.BornObjects(),
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
	if err := q.Validate(); err != nil {
		return netproto.ErrorFrame("%v", err)
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
