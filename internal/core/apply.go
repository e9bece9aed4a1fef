package core

import (
	"fmt"
	"slices"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// Applier is the ground truth a policy's decisions are applied to, and
// the one implementation of the paper's accounting order — evict, load,
// the update arrives, ship updates, answer — for the simulator and the
// live cache node alike. A bad decision item is skipped and reported as
// a violation; the rest of the decision still applies. The Applier moves
// no bytes and charges no ledger: each caller charges the Plan when its
// traffic happens. It is not safe for concurrent use.
type Applier struct {
	size     func(model.ObjectID) (cost.Bytes, bool)
	capacity cost.Bytes
	used     cost.Bytes
	// exemptUsed is the preload occupancy of capacity-exempt yardsticks
	// (Replica); capacity violations are measured against
	// max(capacity, exemptUsed).
	exemptUsed cost.Bytes
	// resident is the resident set, indexed densely by object ID: every
	// object of an at-cache answer is checked in it.
	resident *idSet
	// outstanding maps each resident object that has outstanding
	// updates to their IDs, and owed marks its keys; pending holds
	// those updates.
	outstanding map[model.ObjectID]map[model.UpdateID]struct{}
	owed        *idSet
	pending     map[model.UpdateID]model.Update
}

// Plan is what an applied decision owes the network: the evictions and
// loads the Applier accepted (each load with its size), the outstanding
// updates to ship (each with its cost), and how the query is answered.
type Plan struct {
	Evict     []model.ObjectID
	Load      []model.Object
	Ship      []model.Update
	ShipQuery bool
	// Stale marks an at-cache answer over an object that is absent or
	// misses an update t(q) requires. The simulator counts the answer; a
	// live node ships the query instead.
	Stale bool
}

// NewApplier returns an empty cache of the given capacity. size reports
// an object's size and whether the object exists: the caller's universe.
func NewApplier(capacity cost.Bytes, size func(model.ObjectID) (cost.Bytes, bool)) *Applier {
	return &Applier{
		size:        size,
		capacity:    capacity,
		resident:    newIDSet(0),
		outstanding: make(map[model.ObjectID]map[model.UpdateID]struct{}),
		owed:        newIDSet(0),
		pending:     make(map[model.UpdateID]model.Update),
	}
}

// Adopt makes ids resident without a load: what a policy adopted
// through Warm, or residents recovered from disk. An unknown or already
// resident id is malformed input, an error.
func (a *Applier) Adopt(ids []model.ObjectID) error {
	for _, id := range ids {
		size, ok := a.size(id)
		if !ok {
			return fmt.Errorf("core: adoption of unknown object %d", id)
		}
		if a.resident.has(id) {
			return fmt.Errorf("core: duplicate adoption of object %d", id)
		}
		a.resident.add(id)
		a.used += size
	}
	return nil
}

// Preload adopts a Preloader's starting set and sets the
// capacity-exempt allowance to the resulting occupancy.
func (a *Applier) Preload(ids []model.ObjectID) error {
	if err := a.Adopt(ids); err != nil {
		return err
	}
	a.exemptUsed = a.used
	return nil
}

// Resize changes the capacity later decisions are checked against: a
// node's owned universe, and with it its capacity, changes live.
func (a *Applier) Resize(capacity cost.Bytes) { a.capacity = capacity }

// Apply applies decision d on event e and returns the Plan it owes and
// one message per violation.
func (a *Applier) Apply(e *model.Event, d Decision) (Plan, []string) {
	var (
		p          Plan
		violations []string
	)
	violate := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	// 1. Evictions.
	for _, id := range d.Evict {
		if !a.resident.has(id) {
			violate("event %d: evict of non-resident object %d", e.Seq, id)
			continue
		}
		a.Unload(id)
		p.Evict = append(p.Evict, id)
	}
	// 2. Loads (the object arrives fresh: any updates that occurred
	// while it was away are part of the copy).
	for _, id := range d.Load {
		size, ok := a.size(id)
		if !ok {
			violate("event %d: load of unknown object %d", e.Seq, id)
			continue
		}
		if a.resident.has(id) {
			violate("event %d: load of already-resident object %d", e.Seq, id)
			continue
		}
		a.resident.add(id)
		a.used += size
		p.Load = append(p.Load, model.Object{ID: id, Size: size})
	}
	// A capacity-exempt mirror's birth-time loads raise its allowance.
	if e.Kind == model.EventBirth && a.exemptUsed > 0 {
		a.exemptUsed = max(a.exemptUsed, a.used)
	}
	if limit := max(a.capacity, a.exemptUsed); a.used > limit {
		violate("event %d: cache over capacity: %v > %v", e.Seq, a.used, limit)
	}

	// 3. The update itself arrives at the repository; outstanding
	// bookkeeping applies only to resident objects.
	if e.Kind == model.EventUpdate {
		u := e.Update
		if a.resident.has(u.Object) {
			ups := a.outstanding[u.Object]
			if ups == nil {
				ups = make(map[model.UpdateID]struct{})
				a.outstanding[u.Object] = ups
				a.owed.add(u.Object)
			}
			ups[u.ID] = struct{}{}
			a.pending[u.ID] = *u
		}
	}

	// 4. Update shipments.
	for _, uid := range d.ApplyUpdates {
		u, ok := a.pending[uid]
		if !ok {
			violate("event %d: shipping update %d that is not outstanding", e.Seq, uid)
			continue
		}
		p.Ship = append(p.Ship, u)
		delete(a.pending, uid)
		ups := a.outstanding[u.Object]
		delete(ups, uid)
		if len(ups) == 0 {
			delete(a.outstanding, u.Object)
			a.owed.remove(u.Object)
		}
	}

	// 5. Answer the query.
	if e.Kind == model.EventQuery {
		q := e.Query
		p.ShipQuery = d.ShipQuery
		if !d.ShipQuery {
			for _, id := range q.Objects {
				if !a.resident.has(id) {
					violate("event %d: query %d answered at cache but object %d absent", e.Seq, q.ID, id)
					p.Stale = true
				}
				if !a.owed.has(id) {
					continue
				}
				for uid := range a.outstanding[id] {
					if u := a.pending[uid]; model.UpdateRequired(&u, q) {
						violate("event %d: query %d answered stale: update %d on object %d unapplied", e.Seq, q.ID, uid, id)
						p.Stale = true
					}
				}
			}
		}
	}
	return p, violations
}

// Unload rolls back a load that failed to materialize: id, if still
// resident, leaves with its outstanding updates.
func (a *Applier) Unload(id model.ObjectID) {
	if !a.resident.has(id) {
		return
	}
	for uid := range a.outstanding[id] {
		delete(a.pending, uid)
	}
	delete(a.outstanding, id)
	a.owed.remove(id)
	a.resident.remove(id)
	size, _ := a.size(id)
	a.used -= size
}

// Resident reports whether id is in the cache.
func (a *Applier) Resident(id model.ObjectID) bool { return a.resident.has(id) }

// Residents lists the resident objects in ascending order.
func (a *Applier) Residents() []model.ObjectID { return slices.Sorted(a.resident.all()) }

// Len is how many objects are resident.
func (a *Applier) Len() int { return a.resident.len() }

// Used is the resident objects' total size.
func (a *Applier) Used() cost.Bytes { return a.used }

// Capacity is the capacity decisions are checked against.
func (a *Applier) Capacity() cost.Bytes { return a.capacity }
