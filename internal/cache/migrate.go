// Live resharding. A cluster resize changes which objects this node
// owns; instead of restarting the node cold, the router sends it
// MsgReshard, which atomically replaces the owned object set: the
// policy is rebuilt for the new universe (the decision framework is
// Init-once by design), still-owned residents are carried over warm via
// core.Warmable, then the reshard's warm list — objects this node gains
// that were resident at their old primary — is adopted through the same
// call; residents the node no longer owns are dropped for free.
//
// Nothing moves between shards and nothing is loaded from the
// repository: residency is bookkeeping, so a warm arrival is a name on a
// list, and the repository ledger (the paper's objective function) sees
// no reload for it. The repository hears only the new owned set, on the
// invalidation stream (filter.go).
package cache

import (
	"fmt"
	"slices"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// Reshard atomically replaces the node's owned object set with exactly
// owned (a subset of the known universe; meta supplies metadata for
// objects born after this node spawned, so a fresh shard can take
// ownership of newborns it has never seen). A fresh policy is built
// from Config.PolicyFactory and initialized over the new universe; it
// then adopts (core.Warmable) the still-owned residents, sorted, and
// after them the warm IDs that are owned and not already resident,
// sorted — so under capacity pressure carried state wins over
// arrivals. Everything else is discarded. It returns how many objects
// are resident after the swap and how many former residents were
// dropped; warm adoptions count into StatsMsg.MigratedIn.
//
// A fresh core.Applier starts beside the fresh policy, holding what it
// adopted. Residency optimism carries over: an object whose load is
// still in flight at swap time is adopted as resident; if that load
// ultimately fails, its flight unloads it from the new applier, and the
// applier's answer check ships any query the policy would answer from
// it. Warm IDs are hints in the same sense: the router read them from
// the old primary's resident list, which may have moved on since.
//
// A reshard that gains objects widens the repository's notice filter to
// old ∪ new and waits for its echo before the swap; every successful
// reshard then narrows it to the new set (filter.go).
func (m *Middleware) Reshard(epoch int, owned []model.ObjectID, meta []model.Object, warm []model.ObjectID) (resident, dropped int, err error) {
	if m.cfg.PolicyFactory == nil {
		return 0, 0, fmt.Errorf("cache: no policy factory configured; live reshard unavailable")
	}
	m.mu.Lock()
	for _, o := range meta {
		if !m.byID.has(o.ID) {
			m.byID.put(o)
		}
	}
	want := newIDSet(len(owned))
	universe := make([]model.Object, 0, len(owned))
	for _, id := range owned {
		o, ok := m.byID.get(id)
		if !ok {
			m.mu.Unlock()
			return 0, 0, fmt.Errorf("cache: reshard names object %d outside the known universe", id)
		}
		if want.has(id) {
			continue
		}
		want.add(id)
		universe = append(universe, o)
	}
	m.mu.Unlock()
	if len(universe) == 0 {
		return 0, 0, fmt.Errorf("cache: reshard leaves the node with no objects")
	}
	capacity := m.cfg.Capacity
	if m.cfg.ReshardCapacity != nil {
		capacity = m.cfg.ReshardCapacity(universe)
	}
	policy := m.cfg.PolicyFactory()
	if policy == nil {
		return 0, 0, fmt.Errorf("cache: policy factory returned nil")
	}
	if err := policy.Init(universe, capacity); err != nil {
		return 0, 0, fmt.Errorf("cache: reshard init: %w", err)
	}

	// Reshards serialize on the filter handshake (filter.go): the owned
	// set changes only while the repository's filter covers both sides.
	m.filter.mu.Lock()
	defer m.filter.mu.Unlock()
	m.mu.Lock()
	// Reject frames from a superseded resize: a reshard that timed out
	// router-side can still arrive late, and applying it would clobber
	// the owned set a newer epoch installed. Widen and narrow share an
	// epoch, so equality is allowed.
	if epoch < m.reshardEpoch {
		m.mu.Unlock()
		return 0, 0, fmt.Errorf("cache: reshard for epoch %d superseded by epoch %d", epoch, m.reshardEpoch)
	}
	gains := false
	if m.owned != nil {
		for id := range want.all() {
			if !m.owned.has(id) {
				gains = true
				break
			}
		}
	}
	m.mu.Unlock()
	if gains {
		// A notice on a gained object applied before the repository
		// passes it would never reach the policy: widen the filter to
		// old ∪ new and wait for it before owning anything new.
		m.awaitFilter(m.sendFilter(want))
	}
	m.mu.Lock()
	resident, dropped, err = m.swapLocked(epoch, want, warm, policy, capacity)
	m.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	// Narrow to exactly the new set; nothing waits on it.
	m.sendFilter(nil)
	return resident, dropped, nil
}

// swapLocked installs the reshard's policy, applier and owned set; mu
// must be held.
func (m *Middleware) swapLocked(epoch int, want *idSet, warm []model.ObjectID, policy core.Policy, capacity cost.Bytes) (resident, dropped int, err error) {
	m.reshardEpoch = epoch
	residents := m.applier.Residents() // sorted: deterministic adoption under capacity pressure
	carried := make([]model.ObjectID, 0, len(residents))
	for _, id := range residents {
		if want.has(id) {
			carried = append(carried, id)
		}
	}
	arrivals := make([]model.ObjectID, 0, len(warm))
	for _, id := range warm {
		if !m.applier.Resident(id) && want.has(id) {
			arrivals = append(arrivals, id)
		}
	}
	slices.Sort(arrivals)
	arrivals = slices.Compact(arrivals)
	var adopted []model.ObjectID
	if w, ok := policy.(core.Warmable); ok {
		adopted, err = w.Warm(append(carried, arrivals...))
		if err != nil {
			return 0, 0, fmt.Errorf("cache: reshard warm: %w", err)
		}
	}
	next := core.NewApplier(capacity, m.sizeOf)
	if err := next.Preload(adopted); err != nil {
		return 0, 0, fmt.Errorf("cache: reshard warm: %w", err)
	}
	kept := 0
	for _, id := range adopted {
		if m.applier.Resident(id) {
			kept++
		}
	}
	dropped = len(residents) - kept
	m.migratedIn.Add(int64(len(adopted) - kept))
	m.applier = next
	m.policy = policy
	m.owned = want
	m.cfg.Logf("reshard epoch %d: %d objects owned, %d resident carried, %d adopted warm, %d dropped (capacity %v)",
		epoch, want.len(), kept, len(adopted)-kept, dropped, capacity)
	return len(adopted), dropped, nil
}

// handleReshard serves MsgReshard: the router's filter-swap command. A
// successful swap snapshots immediately — the owned set, the epoch and
// the resident set (warm arrivals included) just changed wholesale, and
// a crash replaying a pre-reshard journal onto a pre-reshard snapshot
// would resurrect state the router re-homed.
func (m *Middleware) handleReshard(body netproto.ReshardMsg) (netproto.Frame, error) {
	resident, droppedCount, err := m.Reshard(body.Epoch, body.Owned, body.Universe, body.Warm)
	if err != nil {
		return netproto.Frame{}, err
	}
	if body.Replicas > 0 {
		// The recut ownership's replication factor, so stats keep
		// reporting the deployed K after a resize (0 = an older router
		// that predates the field; keep the configured value).
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
