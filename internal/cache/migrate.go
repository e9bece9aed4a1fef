// Live resharding. A cluster shard owns only what its router tells it:
// the router's first MsgReshard (at router startup, or in the resize
// that brings the shard in) installs the owned set, and every resize
// changes it. The order a reshard follows is core.Shard's; this file is
// its I/O: the registrations between its two halves, the journal, the
// loads it owes and the snapshot after it.
//
// Nothing moves between shards and nothing is loaded from the
// repository for an arrival: residency is bookkeeping, so a warm arrival
// is a name on a list, and the repository ledger (the paper's objective
// function) sees no reload for it. The repository hears only the
// shard's registrations on the invalidation stream: a shard's stream
// carries the notices of what it registered and nothing else. An
// unscoped shard (Benefit, Replica) registers what it gains and drops
// what it loses, so its stream follows what it owns; a scoped one
// registers what it holds — its loads register themselves, and a
// reshard registers its warm arrivals — and drops what it loses too.
// Either answers a reshard only once its drop is echoed.
package cache

import (
	"fmt"
	"slices"

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
// is nil) and loads what a Preloader starts with. A standalone cache
// owns its whole universe and refuses every reshard.
func (m *Middleware) Reshard(epoch int, owned []model.ObjectID, meta []model.Object, warm []model.ObjectID) (resident, dropped int, err error) {
	if !m.cfg.Shard {
		return 0, 0, fmt.Errorf("cache: a standalone cache owns its whole universe; only a cluster shard reshards")
	}
	m.reshards.Lock()
	defer m.reshards.Unlock()

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
	// A notice the repository withheld before a registration is
	// installed never arrives: register the warm arrivals, which are
	// adopted resident, and on an unscoped shard every gained object,
	// and wait for the echo before anything adopts or loads one. (No
	// fragment on a gained object comes before this reshard replies:
	// the router routes none here until its widen is done.)
	need := warm
	if !m.scoped {
		need = append(slices.Clip(g.Gained), warm...)
	}
	m.inv.AwaitConfirmed(need)

	m.mu.Lock()
	if _, ok := m.inv.Confirmed(warm); !ok {
		// A gap reset the registrations: the arrivals stay cold. One
		// that comes after this check finds them resident and evicts
		// them on its resume, which needs mu.
		warm = nil
	}
	s, err := m.shard.Settle(warm)
	forgot := m.planLocked(s.Step)
	resident = m.shard.Len()
	// Drop what the shard lost under mu, so a resume's re-registration
	// of the owned set sees it either before the loss or after.
	m.inv.Unregister(s.Lost)
	m.mu.Unlock()
	// Wait for the drop's echo, as for the gains': an update applied once
	// the reshard has replied must not reach this node.
	m.inv.AwaitDropped(s.Lost)
	if s.WarmErr != nil {
		m.cfg.Logf("reshard warm: %v (arrivals stay cold)", s.WarmErr)
	}
	m.migratedIn.Add(int64(s.Migrated))
	m.journalPlan(forgot)
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
	m.cfg.Logf("reshard epoch %d: %d objects gained, %d resident, %d dropped", epoch, len(g.Gained), resident, dropped)
	return resident, dropped, nil
}

// handleReshard serves MsgReshard: the router's owned-set command. A
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
