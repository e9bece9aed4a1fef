// Package core implements Delta's decision framework: the data
// decoupling problem and the algorithms the paper evaluates on it.
//
// The decoupling problem (Section 3): given the repository's object set,
// an online sequence of queries at the cache and updates at the
// repository, decide which objects to load, which to evict, which
// queries to ship and which updates to ship, such that the cache never
// exceeds its capacity, every query is answered within its tolerance for
// staleness, and total network traffic is minimized.
//
// Five policies are provided:
//
//   - VCover — the paper's contribution: an online algorithm whose
//     UpdateManager solves incremental minimum-weight vertex covers on
//     the query–update interaction graph, and whose LoadManager pays
//     each missed query's cost out to its missing objects as per-object
//     credit: an object whose credit reaches its load cost becomes a
//     candidate and is loaded, evicting residents in Greedy-Dual-Size
//     order with hit counts. A resident's priority is the integer
//     L + hits since load, where L is the last victim's priority;
//     cost/size is absent, because an object's fetch cost is its size,
//     so the ratio was always 1.
//   - Benefit — the exponential-smoothing greedy heuristic
//     representative of commercial dynamic-data caches.
//   - NoCache, Replica, SOptimal — the three yardsticks of Section 6.
//
// Policies are deliberately passive: they return Decisions and the
// caller (the simulator or the live cache service) applies them through
// an Applier. Each policy maintains an internal mirror of cache state
// that is, by construction, consistent with the caller's ground truth;
// the Applier cross-checks the two on every event, for both callers.
//
// Both tiers of a cluster decide here, with no I/O: a shard in Shard,
// the router in Ownership (placement), Ownership.Split (fragments and
// their retries) and ResultCache. internal/cache and internal/cluster
// are the I/O shells around them.
package core

import (
	"fmt"
	"slices"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// Decision is a policy's response to one event. The caller applies the
// parts in this order: Evict, Load, ApplyUpdates, then answers the query
// (shipping it if ShipQuery, otherwise from the cache).
type Decision struct {
	// ShipQuery routes the query to the repository; its result (of size
	// ν(q)) travels the network.
	ShipQuery bool
	// ApplyUpdates ships the identified outstanding updates from the
	// repository and applies them to cached objects.
	ApplyUpdates []model.UpdateID
	// Load bulk-copies whole objects into the cache (cost ν(o) each);
	// loaded objects are fresh: all their outstanding updates are
	// included in the copy.
	Load []model.ObjectID
	// Evict drops objects from the cache (no network cost).
	Evict []model.ObjectID
}

// IsNoop reports whether the decision takes no action.
func (d Decision) IsNoop() bool {
	return !d.ShipQuery && len(d.ApplyUpdates) == 0 && len(d.Load) == 0 && len(d.Evict) == 0
}

// Policy is a decoupling algorithm. Implementations are single-threaded:
// the caller serializes every call. A repository grows while it serves,
// so every policy takes newborns (Grower) and is offered residents that
// are already warm (Warmable), which it may decline.
type Policy interface {
	Grower
	Warmable

	// Name identifies the policy in experiment output.
	Name() string
	// Init provides the object universe and cache capacity. It must be
	// called exactly once before any event.
	Init(objects []model.Object, capacity cost.Bytes) error
	// OnQuery decides how to answer a query.
	OnQuery(q *model.Query) (Decision, error)
	// OnUpdate reacts to an update arriving at the repository. Most
	// policies only record it; push-based policies return
	// ApplyUpdates to ship it to the cache immediately.
	OnUpdate(u *model.Update) (Decision, error)
}

// Preloader is implemented by policies whose cache starts non-empty
// (Replica, SOptimal). Preload returns the initially resident objects
// and whether their load cost is charged to the ledger (the paper
// charges SOptimal but not Replica).
type Preloader interface {
	Preload() (objs []model.ObjectID, charge bool)
}

// Grower is a policy's object universe extending while it runs — the
// rapidly-growing repository the paper is built for, where newly
// published objects join the universe live instead of requiring a
// restart. AddObjects registers the newborns so later decisions
// (benefit bookkeeping, cover computations, load candidacy) reason
// about them exactly like start-time objects; it may return a Decision
// for immediate action (Replica loads every newborn so its mirror stays
// complete). Objects already known are an error — the caller
// deduplicates.
type Grower interface {
	AddObjects(objs []model.Object) (Decision, error)
}

// Warmable is a policy adopting already-resident objects without a
// load, at any point in its life. It has two consumers. A live cluster
// reshard (cache.Middleware.Reshard) adopts the warm arrivals the
// router listed (objects resident at their old primary) instead of
// re-fetching them from the repository, and a shard's first reshard
// adopts the residents it recovered from disk. Durable restart
// (internal/persist + cache.Middleware recovery, see
// docs/PERSISTENCE.md) re-adopts a standalone node's recovered
// residents right after Init, so a restarted node rejoins warm. Warm
// returns the subset of ids the policy actually adopted, in order: an
// object already resident is kept, and one may be declined when it no
// longer fits the capacity, so residents win over arrivals and earlier
// ids over later ones. A policy that declines every offer (NoCache,
// SOptimal) takes every arrival cold — and restarts cold from disk.
type Warmable interface {
	Warm(ids []model.ObjectID) ([]model.ObjectID, error)
}

// Forgetter is implemented by policies whose object universe can shrink
// and whose capacity can change while running: a live cluster reshard
// hands objects to other shards and resizes the node to what it still
// owns. Forget drops ids from the universe — evicting any that are
// resident, together with the updates outstanding on them — sets the
// capacity, and returns every eviction both need in one Decision; an id
// the policy does not know is ignored. A reshard of a policy without
// Forget may only gain objects at an unchanged capacity.
type Forgetter interface {
	Forget(ids []model.ObjectID, capacity cost.Bytes) (Decision, error)
}

// objectIndex is the shared bookkeeping helper for policies: object
// metadata plus a mirror of cache residency, both indexed densely by
// object ID (objectTable, idSet), since every object of every query is
// looked up in both.
type objectIndex struct {
	objects  *objectTable
	capacity cost.Bytes

	cached *idSet
	used   cost.Bytes
}

func newObjectIndex(objects []model.Object, capacity cost.Bytes) (*objectIndex, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("core: negative cache capacity")
	}
	idx := &objectIndex{
		objects:  newObjectTable(len(objects)),
		capacity: capacity,
		cached:   newIDSet(0),
	}
	for _, o := range objects {
		if err := idx.addObject(o); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// addObject extends the universe with one new object.
func (idx *objectIndex) addObject(o model.Object) error {
	if o.Size < 0 {
		return fmt.Errorf("core: object %d has negative size", o.ID)
	}
	if idx.objects.has(o.ID) {
		return fmt.Errorf("core: duplicate object %d", o.ID)
	}
	idx.objects.put(o)
	return nil
}

func (idx *objectIndex) size(id model.ObjectID) (cost.Bytes, error) {
	o, ok := idx.objects.get(id)
	if !ok {
		return 0, fmt.Errorf("core: unknown object %d", id)
	}
	return o.Size, nil
}

func (idx *objectIndex) isCached(id model.ObjectID) bool { return idx.cached.has(id) }

func (idx *objectIndex) allCached(ids []model.ObjectID) bool {
	for _, id := range ids {
		if !idx.isCached(id) {
			return false
		}
	}
	return true
}

func (idx *objectIndex) markCached(id model.ObjectID) error {
	if idx.isCached(id) {
		return fmt.Errorf("core: object %d already cached", id)
	}
	size, err := idx.size(id)
	if err != nil {
		return err
	}
	idx.cached.add(id)
	idx.used += size
	return nil
}

func (idx *objectIndex) markEvicted(id model.ObjectID) error {
	if !idx.isCached(id) {
		return fmt.Errorf("core: object %d not cached", id)
	}
	size, err := idx.size(id)
	if err != nil {
		return err
	}
	idx.cached.remove(id)
	idx.used -= size
	return nil
}

// cachedObjects lists the mirror's resident set in ascending order.
func (idx *objectIndex) cachedObjects() []model.ObjectID {
	return slices.Sorted(idx.cached.all())
}
