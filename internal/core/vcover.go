package core

import (
	"container/heap"
	"fmt"
	"slices"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/flow"
	"github.com/deltacache/delta/internal/model"
)

// VCoverConfig parameterizes VCover. The algorithm itself has no knobs:
// loads are bought with a per-object credit, evictions follow hits, and
// updates are only ever shipped on demand, when a vertex cover picks
// them.
type VCoverConfig struct {
	// Seed does nothing: it drove the paper's randomized cost
	// attribution, which the per-object credit replaced.
	//
	// Deprecated: kept only because the frozen bench/ module sets it
	// (bench/workloads.go). Delete it with that use.
	Seed int64
	// GDSF does nothing: it chose between counting a resident's hits in
	// its eviction priority and plain recency, and the priority always
	// counts them.
	//
	// Deprecated: kept only because the frozen bench/ module sets it
	// (bench/workloads.go). Delete it with that use.
	GDSF bool
}

// DefaultVCoverConfig returns the configuration used in the experiments.
func DefaultVCoverConfig() VCoverConfig { return VCoverConfig{} }

// VCover is the paper's online algorithm for the data decoupling
// problem (Section 4). It is composed of two managers:
//
//   - UpdateManager: for queries whose objects are all cached, it
//     maintains a *remainder* interaction graph of query and update
//     vertices (weights ν(q), ν(u)) and computes the minimum-weight
//     vertex cover incrementally via network flow. Updates in the cover
//     are shipped; if the query is in the cover it is shipped. Update
//     vertices picked in a cover and query vertices not picked are
//     excluded from the remainder graph, keeping it small and making the
//     cover computation robust to workload changes.
//   - LoadManager: for queries that miss, the query is shipped, and in
//     the background the query's cost is paid out to its missing objects
//     in ascending ID order, each taking only what its credit still
//     lacks of its load cost l(o). An object whose credit reaches l(o)
//     becomes a load candidate and its credit returns to zero, so an
//     object is loaded only after shipping costs equal to its load cost
//     have been paid — the rent-or-buy bound of the bypass-caching work
//     the paper builds on. A candidate is loaded, evicting residents
//     until it fits, unless it is larger than the whole cache.
//
// The paper's LoadManager (Fig 6) pays the cost out in random order and
// makes the first object it cannot pay in full a candidate with
// probability c/l(o), so that it needs no per-object counter. Here the
// per-object state is dense and a counter costs 8 bytes, and the
// deterministic credit ships fewer bytes on every trace seed measured
// (docs/EXPERIMENTS.md, "VCover's load rule").
//
// Evictions follow the paper's usage "from frequency and recency of
// use": Greedy-Dual-Size with hit counts (GDSF). Each resident o has the
// integer priority H(o) = L + n(o), where n(o) counts its load and its
// hits since (a zero-size object counts none, so its H is L), and L is
// the H of the last victim as of the load or latest hit. The victim is the
// resident of least H, ties to the smaller ID. Greedy-Dual-Size weighs
// n by cost/size, but an object's fetch cost is its size, so the ratio
// is always 1 and is left out. Like the paper's lazy LoadManager, a
// candidate that a later candidate of the same query displaces is never
// loaded.
type VCover struct {
	idx *objectIndex
	bip *flow.Bipartite
	// credit[o] is the miss cost paid out to missing object o since it
	// last became a load candidate; it stays below o's load cost.
	credit creditTable

	// The eviction order: prio[o] is resident o's H and hits[o] its
	// n(o), floor is L, and order is a min-heap of the residents on
	// (H, ID). A resident's H only rises (L never falls and n only
	// grows), so a hit leaves the heap alone and an entry's h may lag
	// below prio; shrink brings the root current until it is the least.
	prio, hits creditTable
	floor      int64
	order      rankHeap

	// outstanding[o] holds updates received for cached object o that
	// have not been shipped, in arrival order. An object is a key only
	// while it has some, and owed marks the keys, so a query skips the
	// objects with none on a bit test instead of a map lookup.
	outstanding map[model.ObjectID][]model.Update
	owed        *idSet
	// updObject maps update vertices present in the interaction graph to
	// their object.
	updObject map[model.UpdateID]model.ObjectID

	stats VCoverStats
}

// VCoverStats counts internal decisions, exposed for experiments and
// tests.
type VCoverStats struct {
	QueriesAtCache    int64 // answered from cache without shipping
	QueriesShipped    int64
	UpdatesShipped    int64
	ObjectsLoaded     int64
	ObjectsEvicted    int64
	CoverComputations int64
}

// NewVCover returns a VCover policy. Its configuration decides nothing.
func NewVCover(VCoverConfig) *VCover { return &VCover{} }

// Name implements Policy.
func (p *VCover) Name() string { return "VCover" }

// Stats returns internal decision counters.
func (p *VCover) Stats() VCoverStats { return p.stats }

// Init implements Policy.
func (p *VCover) Init(objects []model.Object, capacity cost.Bytes) error {
	if p.idx != nil {
		return fmt.Errorf("core: VCover initialized twice")
	}
	idx, err := newObjectIndex(objects, capacity)
	if err != nil {
		return err
	}
	p.idx = idx
	p.bip = flow.NewBipartite()
	p.outstanding = make(map[model.ObjectID][]model.Update)
	p.owed = newIDSet(0)
	p.updObject = make(map[model.UpdateID]model.ObjectID)
	return nil
}

// Warm implements Warmable: adopt already-resident objects without a
// load (warm arrivals of a live reshard, and recovered residents). Each
// object is admitted only when it fits the remaining free capacity, with
// the priority of a fresh load, L + 1 (L for a zero-size object) —
// warming never evicts, so the adopted set is order-independent up to
// capacity exhaustion; declined objects simply stay cold and reload on
// demand.
func (p *VCover) Warm(ids []model.ObjectID) ([]model.ObjectID, error) {
	if p.idx == nil {
		return nil, fmt.Errorf("core: VCover not initialized")
	}
	adopted := make([]model.ObjectID, 0, len(ids))
	for _, id := range ids {
		if p.idx.isCached(id) {
			adopted = append(adopted, id)
			continue
		}
		size, err := p.idx.size(id)
		if err != nil {
			return nil, err
		}
		if p.idx.used+size > p.idx.capacity {
			continue
		}
		// A warm arrival is as fresh as its old holder's copy: any
		// updates it missed are that holder's outstanding set, which the
		// warm list does not carry — treat the copy as fresh (nothing
		// outstanding), the same optimism a repository load has.
		if err := p.admit(id, size); err != nil {
			return nil, err
		}
		adopted = append(adopted, id)
	}
	return adopted, nil
}

// AddObjects implements Grower: newborns join the universe cold, with
// no credit, and become load candidates the same way any uncached
// object does — once missed queries have paid their load cost. The
// credit table grows to a newborn's ID when it is first paid.
func (p *VCover) AddObjects(objs []model.Object) (Decision, error) {
	if p.idx == nil {
		return Decision{}, fmt.Errorf("core: VCover not initialized")
	}
	for _, o := range objs {
		if err := p.idx.addObject(o); err != nil {
			return Decision{}, err
		}
	}
	return Decision{}, nil
}

// Forget implements Forgetter: a forgotten resident leaves with its
// outstanding updates and their interaction-graph vertices, leaving L
// where it is; any forgotten object leaves with its credit; and a
// smaller capacity evicts in eviction order (least L + hits since load
// first, L rising to each victim's priority) until the residents fit.
func (p *VCover) Forget(ids []model.ObjectID, capacity cost.Bytes) (Decision, error) {
	if p.idx == nil {
		return Decision{}, fmt.Errorf("core: VCover not initialized")
	}
	if capacity < 0 {
		return Decision{}, fmt.Errorf("core: negative cache capacity")
	}
	var d Decision
	for _, id := range ids {
		if p.idx.isCached(id) {
			if err := p.evictObject(id); err != nil {
				return Decision{}, err
			}
			p.dropOutstanding(id)
			d.Evict = append(d.Evict, id)
		}
		p.idx.objects.remove(id)
		p.credit.set(id, 0)
	}
	if len(d.Evict) > 0 {
		p.order = slices.DeleteFunc(p.order, func(r rank) bool { return !p.idx.isCached(r.id) })
		heap.Init(&p.order)
	}
	p.idx.capacity = capacity
	victims, err := p.shrink(capacity)
	if err != nil {
		return Decision{}, err
	}
	for _, id := range victims {
		p.dropOutstanding(id)
	}
	d.Evict = append(d.Evict, victims...)
	p.stats.ObjectsEvicted += int64(len(d.Evict))
	return d, nil
}

// OnUpdate implements Policy. Updates are never shipped eagerly: the
// cached copy is merely invalidated (design choice A of Section 1); the
// update becomes outstanding and a vertex for it enters the interaction
// graph only when a query interacts with it.
func (p *VCover) OnUpdate(u *model.Update) (Decision, error) {
	if p.idx == nil {
		return Decision{}, fmt.Errorf("core: VCover not initialized")
	}
	if _, err := p.idx.size(u.Object); err != nil {
		return Decision{}, err
	}
	if p.idx.isCached(u.Object) {
		p.outstanding[u.Object] = append(p.outstanding[u.Object], *u)
		p.owed.add(u.Object)
	}
	return Decision{}, nil
}

// ScopedNotices marks VCover scoped: an update on an object it does not
// hold is recorded nowhere.
func (p *VCover) ScopedNotices() {}

// OnQuery implements Policy (Figure 3 of the paper).
func (p *VCover) OnQuery(q *model.Query) (Decision, error) {
	if p.idx == nil {
		return Decision{}, fmt.Errorf("core: VCover not initialized")
	}
	for _, id := range q.Objects {
		if _, err := p.idx.size(id); err != nil {
			return Decision{}, err
		}
	}
	// Count a hit on every resident for the eviction order, whichever
	// manager handles the query.
	allCached := true
	for _, id := range q.Objects {
		if p.idx.isCached(id) {
			p.touch(id)
		} else {
			allCached = false
		}
	}
	if allCached {
		return p.updateManager(q)
	}
	return p.loadManager(q)
}

// updateManager decides between shipping q and shipping its outstanding
// interacting updates (Figure 4 of the paper).
func (p *VCover) updateManager(q *model.Query) (Decision, error) {
	// Collect the updates q interacts with: outstanding updates on B(q)
	// outside q's tolerance for staleness.
	var needed []model.Update
	for _, id := range q.Objects {
		if !p.owed.has(id) {
			continue
		}
		for _, u := range p.outstanding[id] {
			if model.UpdateRequired(&u, q) {
				needed = append(needed, u)
			}
		}
	}
	if len(needed) == 0 {
		// Every interacting update has been shipped: execute at cache.
		p.stats.QueriesAtCache++
		return Decision{}, nil
	}

	// Grow the interaction graph: query vertex, update vertices, edges.
	if err := p.bip.AddLeft(int64(q.ID), int64(q.Cost)); err != nil {
		return Decision{}, fmt.Errorf("core: VCover: %w", err)
	}
	for i := range needed {
		u := &needed[i]
		if !p.bip.HasRight(int64(u.ID)) {
			if err := p.bip.AddRight(int64(u.ID), int64(u.Cost)); err != nil {
				return Decision{}, fmt.Errorf("core: VCover: %w", err)
			}
			p.updObject[u.ID] = u.Object
		}
		if err := p.bip.Connect(int64(q.ID), int64(u.ID)); err != nil {
			return Decision{}, fmt.Errorf("core: VCover: %w", err)
		}
	}

	// Incremental minimum-weight vertex cover.
	cover := p.bip.Solve()
	p.stats.CoverComputations++

	var d Decision
	// Ship every update vertex picked in the cover and drop it from the
	// remainder graph — its shipping is justified by past queries alone
	// and will never be revisited.
	for _, key := range cover.Right {
		uid := model.UpdateID(key)
		obj, ok := p.updObject[uid]
		if !ok {
			return Decision{}, fmt.Errorf("core: VCover: cover update %d not tracked", uid)
		}
		if err := p.applyOutstanding(obj, uid); err != nil {
			return Decision{}, err
		}
		p.bip.RemoveRight(key)
		delete(p.updObject, uid)
		d.ApplyUpdates = append(d.ApplyUpdates, uid)
		p.stats.UpdatesShipped++
	}
	if cover.ContainsLeft(int64(q.ID)) {
		// Cheaper to ship the query; its vertex stays in the remainder
		// graph so its sunk cost keeps justifying future update covers.
		d.ShipQuery = true
		p.stats.QueriesShipped++
	} else {
		p.stats.QueriesAtCache++
	}
	// Remainder subgraph maintenance: drop query vertices not picked in
	// the cover (their currency was paid for by shipped updates) and
	// query vertices that have become isolated.
	for _, key := range p.bip.Lefts() {
		if !cover.ContainsLeft(key) || p.bip.DegreeLeft(key) == 0 {
			p.bip.RemoveLeft(key)
		}
	}
	return d, nil
}

// applyOutstanding removes one update from an object's outstanding list.
func (p *VCover) applyOutstanding(obj model.ObjectID, uid model.UpdateID) error {
	lst := p.outstanding[obj]
	for i := range lst {
		if lst[i].ID == uid {
			if len(lst) == 1 {
				delete(p.outstanding, obj)
				p.owed.remove(obj)
			} else {
				p.outstanding[obj] = append(lst[:i], lst[i+1:]...)
			}
			return nil
		}
	}
	return fmt.Errorf("core: VCover: update %d not outstanding on object %d", uid, obj)
}

// loadManager ships the query and decides, in the background, whether to
// load the missing objects (Figure 6 of the paper, with a per-object
// credit in place of its randomized attribution).
func (p *VCover) loadManager(q *model.Query) (Decision, error) {
	d := Decision{ShipQuery: true}
	p.stats.QueriesShipped++

	var missing []model.ObjectID
	for _, id := range q.Objects {
		if !p.idx.isCached(id) {
			missing = append(missing, id)
		}
	}
	slices.Sort(missing)

	// Pay ν(q) out in ascending ID order: each object takes what its
	// credit still lacks of its load cost, and one whose credit reaches
	// the load cost becomes a candidate and starts over from zero.
	c := int64(q.Cost)
	var candidates []model.ObjectID
	for _, id := range missing {
		if c <= 0 {
			break
		}
		size, err := p.idx.size(id)
		if err != nil {
			return Decision{}, err
		}
		l, have := int64(size), p.credit.get(id)
		need := l - have
		if c < need {
			p.credit.set(id, have+c)
			break
		}
		candidates = append(candidates, id)
		p.credit.set(id, 0)
		c -= need
	}
	if len(candidates) == 0 {
		return d, nil
	}
	// A load bulk-copies the object including all updates received
	// while it was away: the object arrives fresh on both sides ("Both
	// server and cache mark o fresh"), with nothing outstanding.
	var err error
	if d.Load, d.Evict, err = p.admitBatch(candidates); err != nil {
		return Decision{}, err
	}
	p.stats.ObjectsLoaded += int64(len(d.Load))
	p.stats.ObjectsEvicted += int64(len(d.Evict))
	return d, nil
}

// admitBatch admits one query's load candidates in order, each evicting
// residents in eviction order until it fits, and returns what to load
// and what to evict, each ascending. It is the paper's lazy
// LoadManager: a candidate that a later one of the batch displaces is
// in neither list, so it is never loaded ("loading oi is not useful").
// A candidate larger than the whole cache is declined, and one already
// resident counts a hit.
func (p *VCover) admitBatch(candidates []model.ObjectID) (load, evict []model.ObjectID, err error) {
	for _, id := range candidates {
		if p.idx.isCached(id) {
			p.touch(id)
			continue
		}
		size, err := p.idx.size(id)
		if err != nil {
			return nil, nil, err
		}
		if size > p.idx.capacity {
			continue
		}
		victims, err := p.shrink(p.idx.capacity - size)
		if err != nil {
			return nil, nil, err
		}
		for _, v := range victims {
			if i := slices.Index(load, v); i >= 0 {
				load = slices.Delete(load, i, i+1)
			} else {
				evict = append(evict, v)
			}
		}
		if err := p.admit(id, size); err != nil {
			return nil, nil, err
		}
		load = append(load, id)
	}
	slices.Sort(load)
	slices.Sort(evict)
	for _, id := range evict {
		p.dropOutstanding(id)
	}
	return load, evict, nil
}

// admit makes id resident at the priority of a fresh load: L + 1, or L
// for a zero-size object.
func (p *VCover) admit(id model.ObjectID, size cost.Bytes) error {
	if err := p.idx.markCached(id); err != nil {
		return err
	}
	var n int64
	if size > 0 {
		n = 1
	}
	p.hits.set(id, n)
	p.prio.set(id, p.floor+n)
	heap.Push(&p.order, rank{h: p.floor + n, id: id})
	return nil
}

// touch counts a hit on resident id: H = L + n with the current L.
func (p *VCover) touch(id model.ObjectID) {
	n := p.hits.get(id)
	if n > 0 {
		n++
		p.hits.set(id, n)
	}
	p.prio.set(id, p.floor+n)
}

// shrink evicts residents in eviction order until at most limit is used,
// raising L to each victim's priority, and returns the victims in
// order. The victims keep their outstanding updates for the caller to
// drop (dropOutstanding).
func (p *VCover) shrink(limit cost.Bytes) ([]model.ObjectID, error) {
	var victims []model.ObjectID
	for p.idx.used > limit && len(p.order) > 0 {
		top := p.order[0]
		if h := p.prio.get(top.id); top.h != h {
			// A hit raised it since the heap last looked: every other
			// entry's H is at least its h, so once the root is current
			// it is the least.
			p.order[0].h = h
			heap.Fix(&p.order, 0)
			continue
		}
		heap.Pop(&p.order)
		p.floor = top.h
		if err := p.evictObject(top.id); err != nil {
			return nil, err
		}
		victims = append(victims, top.id)
	}
	return victims, nil
}

// evictObject drops a resident from the mirror and the eviction order's
// columns; the caller drops its outstanding updates (dropOutstanding)
// and its heap entry.
func (p *VCover) evictObject(id model.ObjectID) error {
	if err := p.idx.markEvicted(id); err != nil {
		return err
	}
	p.prio.set(id, 0)
	p.hits.set(id, 0)
	return nil
}

// dropOutstanding drops an evicted object's outstanding updates and
// their interaction-graph vertices. Evictions drop them in decision
// order (ascending within a query), since the graph's free lists make
// later covers depend on the order of removals.
func (p *VCover) dropOutstanding(id model.ObjectID) {
	for _, u := range p.outstanding[id] {
		p.bip.RemoveRight(int64(u.ID))
		delete(p.updObject, u.ID)
	}
	delete(p.outstanding, id)
	p.owed.remove(id)
}

// rank is a resident's entry in the eviction heap: h is its priority as
// the heap last saw it, never above prio[id].
type rank struct {
	h  int64
	id model.ObjectID
}

// rankHeap implements heap.Interface over ranks, least (h, id) first.
type rankHeap []rank

func (o rankHeap) Len() int { return len(o) }
func (o rankHeap) Less(i, j int) bool {
	return o[i].h < o[j].h || (o[i].h == o[j].h && o[i].id < o[j].id)
}
func (o rankHeap) Swap(i, j int) { o[i], o[j] = o[j], o[i] }
func (o *rankHeap) Push(x any)   { *o = append(*o, x.(rank)) }
func (o *rankHeap) Pop() any {
	r := (*o)[len(*o)-1]
	*o = (*o)[:len(*o)-1]
	return r
}

// CachedObjects returns the mirror's resident set, for tests and the
// live cache service.
func (p *VCover) CachedObjects() []model.ObjectID { return p.idx.cachedObjects() }
