// Live resharding. A cluster shard owns only what its router tells it:
// the router's first MsgReshard (at router startup, or in the resize
// that brings the shard in) installs the owned set, and every resize
// changes it. The order a reshard follows is core.Shard's; this file is
// its I/O: the widen/echo handshake between its two halves, the
// journal, the loads it owes and the snapshot after it.
//
// Nothing moves between shards and nothing is loaded from the
// repository for an arrival: residency is bookkeeping, so a warm arrival
// is a name on a list, and the repository ledger (the paper's objective
// function) sees no reload for it. The repository hears only the new
// owned set, on the invalidation stream (filter.go).
package cache

import (
	"fmt"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// Reshard changes the node's owned object set to exactly owned, in the
// order core.Shard states (meta supplies metadata for objects born after
// this node spawned). It returns how many objects are resident
// afterwards and how many residents the reshard dropped; warm adoptions
// count into delta_migrated_in_total. A shard's first reshard initializes
// its policy at the capacity ReshardCapacity gives (Capacity when that
// is nil) and loads what a Preloader starts with.
func (m *Middleware) Reshard(epoch int, owned []model.ObjectID, meta []model.Object, warm []model.ObjectID) (resident, dropped int, err error) {
	// Reshards serialize on the subscription's lock, and the owned set
	// grows or shrinks only while the repository's filter covers it.
	m.inv.Lock()
	defer m.inv.Unlock()

	m.mu.Lock()
	g, err := m.shard.Gain(epoch, owned, meta)
	grown := m.planLocked(g.Step)
	preload := m.registerLoads(g.Start.Preload)
	m.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	m.logStart(g.Start)
	m.journalPlan(grown)
	if g.Gained > 0 {
		// A notice the repository queued before its filter passes a
		// gained object never arrives: widen the filter to old ∪ new and
		// wait for its echo before anything loads or adopts one. (No
		// fragment on a gained object comes before this reshard replies:
		// the router routes none here until its widen is done.)
		m.inv.Send(m.filterFrame()).Wait()
	}

	m.mu.Lock()
	s, err := m.shard.Settle(warm)
	forgot := m.planLocked(s.Step)
	resident = m.shard.Len()
	m.mu.Unlock()
	if s.WarmErr != nil {
		m.cfg.Logf("reshard warm: %v (arrivals stay cold)", s.WarmErr)
	}
	m.migratedIn.Add(int64(s.Migrated))
	m.journalPlan(forgot)
	// Narrow to exactly the new set; nothing waits on it.
	m.inv.Send(m.filterFrame())
	if ferr := m.fetch(grown.loads, false); err == nil && ferr != nil {
		err = fmt.Errorf("cache: reshard: %w", ferr)
	}
	if ferr := m.fetch(preload, g.Start.Charge); err == nil && ferr != nil {
		err = fmt.Errorf("cache: preload: %w", ferr)
	}
	if err != nil {
		return 0, 0, err
	}
	dropped = g.Start.Held - g.Start.Adopted + len(s.Evict)
	m.cfg.Logf("reshard epoch %d: %d objects gained, %d resident, %d dropped", epoch, g.Gained, resident, dropped)
	return resident, dropped, nil
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
	m.snapshotNow()
	return netproto.Frame{Type: netproto.MsgReshard, Body: netproto.ReshardMsg{
		Epoch:    body.Epoch,
		Resident: resident,
		Dropped:  droppedCount,
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
