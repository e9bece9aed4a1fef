// Live resharding. A cluster shard owns only what its router tells it:
// the router's first MsgReshard (at router startup, or in the resize
// that brings the shard in) installs the owned set, and every resize
// changes it. The node keeps one policy and one core.Applier for its
// whole life, and a reshard is a delta on them: the install initializes
// the policy over the first owned set; after it, objects the node gains
// join the policy's universe (core.Grower), the reshard's warm list —
// objects it gains that were resident at their old primary — is adopted
// (core.Warmable), and objects it loses leave the universe together
// with any capacity change (core.Forgetter). A resident the node keeps
// is never touched, so it keeps the updates outstanding on it and
// everything the policy learned about it.
//
// Nothing moves between shards and nothing is loaded from the
// repository for an arrival: residency is bookkeeping, so a warm arrival
// is a name on a list, and the repository ledger (the paper's objective
// function) sees no reload for it. The repository hears only the new
// owned set, on the invalidation stream (filter.go).
package cache

import (
	"fmt"
	"slices"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// Reshard changes the node's owned object set to exactly owned (a
// subset of the known universe; meta supplies metadata for objects born
// after this node spawned, so a fresh shard can take ownership of
// newborns it has never seen). An entry of meta that disagrees with what
// the node already knows of the object is refused: the router and this
// node were built from different surveys. It returns how many objects
// are resident afterwards and how many residents the reshard dropped;
// warm adoptions count into StatsMsg.MigratedIn.
//
// A shard's first reshard is its install: the policy is initialized over
// owned at the capacity ReshardCapacity gives (Capacity when that is
// nil) and offered the recovered residents the shard owns. Every later
// reshard is a delta on the live policy, in this order:
//   - gained objects join the policy's universe and the owned set, then
//     the repository's notice filter widens to old ∪ new and the node
//     waits for its echo (filter.go);
//   - lost objects leave the universe, a lost resident with the updates
//     outstanding on it, and the capacity changes;
//   - the warm IDs that are owned and not resident are offered, sorted,
//     so under capacity pressure carried residents win over arrivals;
//   - the filter narrows to the new set.
//
// A policy without core.Forgetter takes only reshards that gain objects
// at an unchanged capacity; any other fails before it changes anything.
// Gained objects a policy loads at once (Replica) load uncharged, as a
// Preloader's starting set does. Warm IDs are hints: the router read them
// from the old primary's resident list, which may have moved on since.
func (m *Middleware) Reshard(epoch int, owned []model.ObjectID, meta []model.Object, warm []model.ObjectID) (resident, dropped int, err error) {
	// Reshards serialize on the subscription's lock, and the owned set
	// grows or shrinks only while the repository's filter covers it.
	m.inv.Lock()
	defer m.inv.Unlock()

	m.mu.Lock()
	d, err := m.deltaLocked(epoch, owned, meta)
	if err != nil {
		m.mu.Unlock()
		return 0, 0, err
	}
	var grown plan
	if d.install {
		dropped, err = m.initLocked(d.owned, d.capacity)
	} else if len(d.gained) > 0 {
		grown, err = m.growLocked(d.gained)
	}
	if err != nil {
		m.mu.Unlock()
		return 0, 0, err
	}
	m.reshardEpoch = epoch
	for _, o := range d.gained {
		m.owned.add(o.ID)
	}
	m.mu.Unlock()
	m.journalPlan(grown)
	if len(d.gained) > 0 {
		// A notice the repository queued before its filter passes a
		// gained object never arrives: widen the filter to old ∪ new and
		// wait for its echo before anything loads or adopts one. (No
		// fragment on a gained object comes before this reshard replies:
		// the router routes none here until its widen is done.)
		m.inv.Send(m.filterFrame()).Wait()
	}

	m.mu.Lock()
	var lost []model.ObjectID
	for id := range m.owned.all() {
		if !d.want.has(id) {
			lost = append(lost, id)
		}
	}
	slices.Sort(lost)
	var forgot plan
	if len(lost) > 0 || d.capacity != m.applier.Capacity() {
		forgot, err = m.forgetLocked(lost, d.capacity)
	}
	if err == nil {
		m.owned = d.want
		dropped += len(forgot.Evict)
		m.warmLocked(warm)
	}
	resident = len(m.applier.Residents())
	m.mu.Unlock()
	m.journalPlan(forgot)
	// Narrow to exactly the new set; nothing waits on it.
	m.inv.Send(m.filterFrame())
	if ferr := m.fetch(grown.loads, false); err == nil && ferr != nil {
		err = fmt.Errorf("cache: reshard: %w", ferr)
	}
	if err == nil && d.install {
		err = m.preload()
	}
	if err != nil {
		return 0, 0, err
	}
	m.cfg.Logf("reshard epoch %d: %d objects owned, %d gained, %d lost, %d resident, %d dropped (capacity %v)",
		epoch, d.want.len(), len(d.gained), len(lost), resident, dropped, d.capacity)
	return resident, dropped, nil
}

// reshardDelta is what one reshard changes.
type reshardDelta struct {
	want     *idSet
	owned    []model.Object // want's objects, in the reshard's order
	gained   []model.Object // objects of want the node does not own yet
	capacity cost.Bytes
	install  bool // the shard's first reshard: its policy is not yet initialized
}

// deltaLocked validates a reshard and works out its delta; it changes
// nothing but the metadata it learns. mu must be held.
func (m *Middleware) deltaLocked(epoch int, owned []model.ObjectID, meta []model.Object) (*reshardDelta, error) {
	if m.owned == nil {
		return nil, fmt.Errorf("cache: a standalone cache owns its whole universe; only a cluster shard reshards")
	}
	// Reject frames from a superseded resize: a reshard that timed out
	// router-side can still arrive late, and applying it would clobber
	// the owned set a newer epoch installed. Widen and narrow share an
	// epoch, so equality is allowed. Epoch 0 is a router's install
	// (NewRouter), which starts that router's epochs over: it always
	// applies, so a restarted router takes over shards an earlier
	// router process left at a higher epoch. Within one router it is
	// never stale — NewRouter waits for every install reply before it
	// serves, and fails without resizing when one does not come.
	if epoch > 0 && epoch < m.reshardEpoch {
		return nil, fmt.Errorf("cache: reshard for epoch %d superseded by epoch %d", epoch, m.reshardEpoch)
	}
	for _, o := range meta {
		known, ok := m.byID.get(o.ID)
		if !ok {
			m.byID.put(o)
			continue
		}
		if known != o {
			return nil, fmt.Errorf("cache: reshard metadata for object %d disagrees: the router has %+v, this node has %+v", o.ID, o, known)
		}
	}
	d := &reshardDelta{want: newIDSet(len(owned)), install: m.awaitingInstallLocked()}
	for _, id := range owned {
		o, ok := m.byID.get(id)
		if !ok {
			return nil, fmt.Errorf("cache: reshard names object %d outside the known universe", id)
		}
		if d.want.has(id) {
			continue
		}
		d.want.add(id)
		d.owned = append(d.owned, o)
		if !m.owned.has(id) {
			d.gained = append(d.gained, o)
		}
	}
	if len(d.owned) == 0 {
		return nil, fmt.Errorf("cache: reshard leaves the node with no objects")
	}
	d.capacity = m.cfg.Capacity
	if m.cfg.ReshardCapacity != nil {
		d.capacity = m.cfg.ReshardCapacity(d.owned)
	}
	if !d.install {
		if _, ok := m.policy.(core.Grower); !ok && len(d.gained) > 0 {
			return nil, fmt.Errorf("cache: policy %s cannot grow its universe; this reshard gains %d objects", m.policy.Name(), len(d.gained))
		}
		loses := len(d.owned)-len(d.gained) < m.owned.len()
		if _, ok := m.policy.(core.Forgetter); !ok && (loses || d.capacity != m.applier.Capacity()) {
			return nil, fmt.Errorf("cache: policy %s cannot forget objects or change its capacity, as this reshard needs", m.policy.Name())
		}
	}
	return d, nil
}

// awaitingInstallLocked reports whether the node is a shard whose
// router has not yet installed what it owns, so its policy is not yet
// initialized: a shard owns nothing only until then. mu must be held.
func (m *Middleware) awaitingInstallLocked() bool {
	return m.owned != nil && m.owned.len() == 0
}

// initLocked initializes the policy over universe at capacity, offers
// it the held recovered residents in universe, sorted (core.Warmable),
// makes what it adopts resident and drops the rest: a standalone node's
// at New, a shard's at its install. It returns how many held residents
// it dropped. mu must be held.
func (m *Middleware) initLocked(universe []model.Object, capacity cost.Bytes) (dropped int, err error) {
	if err := m.policy.Init(universe, capacity); err != nil {
		return 0, fmt.Errorf("cache: init policy: %w", err)
	}
	m.applier.Resize(capacity)
	held := m.held
	m.held = nil
	if len(held) == 0 {
		return 0, nil
	}
	var adopted []model.ObjectID
	if w, ok := m.policy.(core.Warmable); ok {
		in := newIDSet(len(universe))
		for _, o := range universe {
			in.add(o.ID)
		}
		owned := slices.DeleteFunc(slices.Clone(held), func(id model.ObjectID) bool { return !in.has(id) })
		adopted, err = w.Warm(owned)
		if err == nil {
			err = m.applier.Adopt(adopted)
		}
		if err != nil {
			m.cfg.Logf("recovery warm-up: %v (restarting cold)", err)
			adopted = nil
		}
	}
	m.recoveredWarm.Set(int64(len(adopted)))
	m.cfg.Logf("recovered warm: %d of %d residents re-adopted", len(adopted), len(held))
	return len(held) - len(adopted), nil
}

// growLocked extends the policy's universe (core.Grower) and the node's
// with objs and applies the policy's decision as a birth event. mu must
// be held.
func (m *Middleware) growLocked(objs []model.Object) (plan, error) {
	grower, ok := m.policy.(core.Grower)
	if !ok {
		return plan{}, fmt.Errorf("cache: policy %s cannot grow its universe", m.policy.Name())
	}
	d, err := grower.AddObjects(objs)
	if err != nil {
		return plan{}, fmt.Errorf("cache: policy admit objects: %w", err)
	}
	for _, o := range objs {
		m.byID.put(o)
	}
	return m.applyLocked(model.Event{Kind: model.EventBirth}, d), nil
}

// forgetLocked drops ids from the policy's universe and sets its
// capacity (core.Forgetter), and applies the evictions both need. mu must
// be held.
func (m *Middleware) forgetLocked(ids []model.ObjectID, capacity cost.Bytes) (plan, error) {
	f, ok := m.policy.(core.Forgetter)
	if !ok {
		return plan{}, fmt.Errorf("cache: policy %s cannot forget objects or change its capacity", m.policy.Name())
	}
	d, err := f.Forget(ids, capacity)
	if err != nil {
		return plan{}, fmt.Errorf("cache: policy forget objects: %w", err)
	}
	m.applier.Resize(capacity)
	return m.applyLocked(model.Event{}, d), nil
}

// warmLocked offers the policy the warm IDs the node owns and does not
// hold, sorted (core.Warmable), and makes what it adopts resident. mu
// must be held.
func (m *Middleware) warmLocked(warm []model.ObjectID) {
	w, ok := m.policy.(core.Warmable)
	arrivals := slices.DeleteFunc(slices.Clone(warm), func(id model.ObjectID) bool {
		return !m.owned.has(id) || m.applier.Resident(id)
	})
	if !ok || len(arrivals) == 0 {
		return
	}
	slices.Sort(arrivals)
	adopted, err := w.Warm(slices.Compact(arrivals))
	if err == nil {
		err = m.applier.Adopt(adopted)
	}
	if err != nil {
		m.cfg.Logf("reshard warm: %v (arrivals stay cold)", err)
		return
	}
	m.migratedIn.Add(int64(len(adopted)))
}

// handleReshard serves MsgReshard: the router's filter-swap command. A
// successful reshard snapshots immediately: no journal record holds the
// warm arrivals it adopted or the held residents its install dropped,
// so a crash replaying the pre-reshard snapshot and journal would lose
// the one and resurrect the other.
func (m *Middleware) handleReshard(body netproto.ReshardMsg) (netproto.Frame, error) {
	resident, droppedCount, err := m.Reshard(body.Epoch, body.Owned, body.Universe, body.Warm)
	if err != nil {
		return netproto.Frame{}, err
	}
	if body.Replicas > 0 {
		// The ownership's replication factor, so stats report the
		// deployed K (0 leaves the last one the node heard).
		m.replicas.Store(int64(body.Replicas))
	}
	m.snapshotNow()
	return netproto.Frame{Type: netproto.MsgReshard, Body: netproto.ReshardMsg{
		Epoch:    body.Epoch,
		Resident: resident,
		Dropped:  droppedCount,
		Replicas: body.Replicas,
	}}, nil
}

// sumSizes totals a universe's object sizes — the replicated-shape
// capacity helper reshard-capable deployments use.
func sumSizes(objs []model.Object) cost.Bytes {
	var total cost.Bytes
	for _, o := range objs {
		total += o.Size
	}
	return total
}

// ReplicatedCapacity is a ReshardCapacity that sizes the node to hold
// its entire owned universe (the replicated-cluster shape tests and
// benchmarks use).
func ReplicatedCapacity(owned []model.Object) cost.Bytes { return sumSizes(owned) }

// FractionalCapacity returns a ReshardCapacity that sizes the node to
// a fixed fraction of its owned universe.
func FractionalCapacity(frac float64) func([]model.Object) cost.Bytes {
	return func(owned []model.Object) cost.Bytes {
		return cost.Bytes(float64(sumSizes(owned)) * frac)
	}
}
