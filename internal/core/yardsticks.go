package core

import (
	"fmt"
	"sort"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// NoCache is the first yardstick of Section 6: no cache at all; every
// query is shipped to the repository. Any algorithm performing worse is
// of no use.
type NoCache struct {
	initialized bool
}

// NewNoCache returns the NoCache yardstick.
func NewNoCache() *NoCache { return &NoCache{} }

// Name implements Policy.
func (p *NoCache) Name() string { return "NoCache" }

// Init implements Policy.
func (p *NoCache) Init(objects []model.Object, capacity cost.Bytes) error {
	if p.initialized {
		return fmt.Errorf("core: NoCache initialized twice")
	}
	p.initialized = true
	return nil
}

// AddObjects implements Grower: NoCache keeps no universe state, so
// growth is a no-op.
func (p *NoCache) AddObjects(objs []model.Object) (Decision, error) {
	return Decision{}, nil
}

// Warm implements Warmable: NoCache holds nothing, so it declines
// every offer.
func (p *NoCache) Warm(ids []model.ObjectID) ([]model.ObjectID, error) { return nil, nil }

// Forget implements Forgetter: NoCache holds nothing, so there is
// nothing to evict.
func (p *NoCache) Forget(ids []model.ObjectID, capacity cost.Bytes) (Decision, error) {
	return Decision{}, nil
}

// OnQuery implements Policy: always ship.
func (p *NoCache) OnQuery(q *model.Query) (Decision, error) {
	return Decision{ShipQuery: true}, nil
}

// OnUpdate implements Policy: updates never travel.
func (p *NoCache) OnUpdate(u *model.Update) (Decision, error) {
	return Decision{}, nil
}

// ScopedNotices marks NoCache scoped: it holds nothing, so it needs no
// notice.
func (p *NoCache) ScopedNotices() {}

// Replica is the second yardstick: the cache is as large as the server
// and holds all data; every update is shipped to the cache the moment it
// arrives. Load costs and the capacity constraint are ignored (Figure 7
// caption). Any capacity-respecting algorithm that beats Replica is
// clearly good.
type Replica struct {
	idx *objectIndex
}

// NewReplica returns the Replica yardstick.
func NewReplica() *Replica { return &Replica{} }

// Name implements Policy.
func (p *Replica) Name() string { return "Replica" }

// Init implements Policy.
func (p *Replica) Init(objects []model.Object, capacity cost.Bytes) error {
	if p.idx != nil {
		return fmt.Errorf("core: Replica initialized twice")
	}
	// Capacity is deliberately ignored: the replica mirrors the server,
	// so everything it knows is resident from the start (Preload).
	idx, err := newObjectIndex(objects, capacity)
	if err != nil {
		return err
	}
	for _, o := range objects {
		if err := idx.markCached(o.ID); err != nil {
			return err
		}
	}
	p.idx = idx
	return nil
}

// Preload implements Preloader: everything resident, nothing charged.
func (p *Replica) Preload() (objs []model.ObjectID, charge bool) {
	ids := make([]model.ObjectID, 0, p.idx.objects.len())
	for o := range p.idx.objects.all() {
		ids = append(ids, o.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, false
}

// Warm implements Warmable: a replica mirrors the server, so every
// known object is adopted unconditionally (capacity is ignored, as in
// Init/Preload).
func (p *Replica) Warm(ids []model.ObjectID) ([]model.ObjectID, error) {
	if p.idx == nil {
		return nil, fmt.Errorf("core: Replica not initialized")
	}
	adopted := make([]model.ObjectID, 0, len(ids))
	for _, id := range ids {
		if !p.idx.isCached(id) {
			if err := p.idx.markCached(id); err != nil {
				return nil, err
			}
		}
		adopted = append(adopted, id)
	}
	return adopted, nil
}

// AddObjects implements Grower: a replica mirrors the server, so every
// newborn is loaded immediately (and the mirror marks it cached so the
// returned decision is consistent with the policy's own view).
func (p *Replica) AddObjects(objs []model.Object) (Decision, error) {
	if p.idx == nil {
		return Decision{}, fmt.Errorf("core: Replica not initialized")
	}
	var d Decision
	for _, o := range objs {
		if err := p.idx.addObject(o); err != nil {
			return Decision{}, err
		}
		if err := p.idx.markCached(o.ID); err != nil {
			return Decision{}, err
		}
		d.Load = append(d.Load, o.ID)
	}
	return d, nil
}

// Forget implements Forgetter: a forgotten object leaves the mirror.
// Capacity is ignored, as in Init.
func (p *Replica) Forget(ids []model.ObjectID, capacity cost.Bytes) (Decision, error) {
	if p.idx == nil {
		return Decision{}, fmt.Errorf("core: Replica not initialized")
	}
	var d Decision
	for _, id := range ids {
		if p.idx.isCached(id) {
			_ = p.idx.markEvicted(id)
			d.Evict = append(d.Evict, id)
		}
		p.idx.objects.remove(id)
	}
	return d, nil
}

// OnQuery implements Policy: everything is cached and current, so every
// query is answered locally for free.
func (p *Replica) OnQuery(q *model.Query) (Decision, error) {
	return Decision{}, nil
}

// OnUpdate implements Policy: push every update immediately.
func (p *Replica) OnUpdate(u *model.Update) (Decision, error) {
	return Decision{ApplyUpdates: []model.UpdateID{u.ID}}, nil
}

// SOptimal is the third yardstick: the best *static* set of objects to
// cache, decided with full knowledge of the query and update sequence —
// "equivalent to the single decision of Benefit using a window-size as
// large as the entire sequence, but in an offline manner" (Section 6.1).
// Chosen objects are loaded up front (load costs charged); updates for
// them are shipped as they arrive; queries entirely inside the set are
// free; all other queries are shipped. An online algorithm close to
// SOptimal is outstanding.
type SOptimal struct {
	events []model.Event

	idx    *objectIndex
	chosen map[model.ObjectID]struct{}
	// born marks objects that enter the trace via a birth event: a
	// chosen born object cannot be preloaded (it does not exist at
	// t=0), so it is loaded at its publication instead.
	born map[model.ObjectID]struct{}
}

// NewSOptimal returns the offline static-best yardstick for the given
// full event sequence.
func NewSOptimal(events []model.Event) *SOptimal {
	return &SOptimal{events: events}
}

// Name implements Policy.
func (p *SOptimal) Name() string { return "SOptimal" }

// Init implements Policy: performs the offline analysis. Per-object
// benefit over the whole trace is the saved query traffic (each query's
// cost divided among the objects it accesses in proportion to their
// sizes, as in Benefit), minus the update traffic the object would cause
// while cached, minus its one-time load cost. Positive-benefit objects
// are cached greedily in decreasing order until the capacity is full.
func (p *SOptimal) Init(objects []model.Object, capacity cost.Bytes) error {
	if p.idx != nil {
		return fmt.Errorf("core: SOptimal initialized twice")
	}
	idx, err := newObjectIndex(objects, capacity)
	if err != nil {
		return err
	}
	p.idx = idx
	benefit := make(map[model.ObjectID]float64, len(objects))

	for i := range p.events {
		e := &p.events[i]
		switch e.Kind {
		case model.EventBirth:
			// The oracle reads the whole trace, births included: the
			// newborn joins the candidate universe at its publication
			// point, so later queries accrue benefit on it.
			if err := idx.addObject(e.Birth.Object); err != nil {
				return fmt.Errorf("core: SOptimal: %w", err)
			}
			if p.born == nil {
				p.born = make(map[model.ObjectID]struct{})
			}
			p.born[e.Birth.Object.ID] = struct{}{}
		case model.EventQuery:
			q := e.Query
			var totalSize cost.Bytes
			for _, id := range q.Objects {
				size, err := idx.size(id)
				if err != nil {
					return fmt.Errorf("core: SOptimal: %w", err)
				}
				totalSize += size
			}
			for _, id := range q.Objects {
				size, _ := idx.size(id)
				share := float64(q.Cost)
				if totalSize > 0 {
					share *= float64(size) / float64(totalSize)
				} else {
					share /= float64(len(q.Objects))
				}
				benefit[id] += share
			}
		case model.EventUpdate:
			benefit[e.Update.Object] -= float64(e.Update.Cost)
		}
	}
	for id := range benefit {
		size, _ := idx.size(id)
		benefit[id] -= float64(size) // load cost
	}

	ids := make([]model.ObjectID, 0, len(benefit))
	for id := range benefit {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if benefit[ids[i]] != benefit[ids[j]] {
			return benefit[ids[i]] > benefit[ids[j]]
		}
		return ids[i] < ids[j]
	})
	p.chosen = make(map[model.ObjectID]struct{})
	var used cost.Bytes
	for _, id := range ids {
		if benefit[id] <= 0 {
			break
		}
		size, _ := idx.size(id)
		if used+size > capacity {
			continue // try smaller candidates further down the ranking
		}
		p.chosen[id] = struct{}{}
		used += size
	}
	return nil
}

// Preload implements Preloader: the chosen static set, load charged.
// Chosen objects that are born mid-trace are excluded — they do not
// exist at t=0 and load at their publication instead (AddObjects).
func (p *SOptimal) Preload() (objs []model.ObjectID, charge bool) {
	ids := make([]model.ObjectID, 0, len(p.chosen))
	for id := range p.chosen {
		if _, isBorn := p.born[id]; isBorn {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, true
}

// AddObjects implements Grower. A birth the offline scan saw coming is
// already in the universe; if the oracle chose it, it loads now — its
// earliest possible moment. A birth outside the analyzed trace (live
// use past the planned sequence) joins the universe but is never
// cached: the static decision predates it.
func (p *SOptimal) AddObjects(objs []model.Object) (Decision, error) {
	if p.idx == nil {
		return Decision{}, fmt.Errorf("core: SOptimal not initialized")
	}
	var d Decision
	for _, o := range objs {
		if !p.idx.objects.has(o.ID) {
			if err := p.idx.addObject(o); err != nil {
				return Decision{}, err
			}
			continue
		}
		if _, ok := p.chosen[o.ID]; ok && !p.idx.isCached(o.ID) {
			if err := p.idx.markCached(o.ID); err != nil {
				return Decision{}, err
			}
			d.Load = append(d.Load, o.ID)
		}
	}
	return d, nil
}

// Warm implements Warmable: the static set is the offline scan's
// choice, so SOptimal declines every offer.
func (p *SOptimal) Warm(ids []model.ObjectID) ([]model.ObjectID, error) { return nil, nil }

// Chosen reports whether an object is in the static set (for tests).
func (p *SOptimal) Chosen(id model.ObjectID) bool {
	_, ok := p.chosen[id]
	return ok
}

// OnQuery implements Policy.
func (p *SOptimal) OnQuery(q *model.Query) (Decision, error) {
	for _, id := range q.Objects {
		if _, ok := p.chosen[id]; !ok {
			return Decision{ShipQuery: true}, nil
		}
	}
	return Decision{}, nil
}

// OnUpdate implements Policy: push updates for chosen objects so they
// stay current.
func (p *SOptimal) OnUpdate(u *model.Update) (Decision, error) {
	if _, ok := p.chosen[u.Object]; ok {
		return Decision{ApplyUpdates: []model.UpdateID{u.ID}}, nil
	}
	return Decision{}, nil
}
