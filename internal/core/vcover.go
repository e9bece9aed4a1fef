package core

import (
	"fmt"
	"slices"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/flow"
	"github.com/deltacache/delta/internal/gds"
	"github.com/deltacache/delta/internal/model"
)

// VCoverConfig parameterizes VCover. The algorithm itself has no knobs:
// loads are bought with a per-object credit, and updates are only ever
// shipped on demand, when a vertex cover picks them.
type VCoverConfig struct {
	// Seed does nothing: it drove the paper's randomized cost
	// attribution, which the per-object credit replaced.
	//
	// Deprecated: kept only because the frozen bench/ module sets it
	// (bench/workloads.go). Delete it with that use.
	Seed int64
	// GDSF selects the frequency-aware Greedy-Dual-Size variant for the
	// LoadManager's object-usage tracking (the paper measures usage
	// "from frequency and recency of use").
	GDSF bool
}

// DefaultVCoverConfig returns the configuration used in the experiments.
func DefaultVCoverConfig() VCoverConfig {
	return VCoverConfig{GDSF: true}
}

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
//     the paper builds on. Candidates pass through a lazy
//     Greedy-Dual-Size cache that decides actual loads and evictions.
//
// The paper's LoadManager (Fig 6) pays the cost out in random order and
// makes the first object it cannot pay in full a candidate with
// probability c/l(o), so that it needs no per-object counter. Here the
// per-object state is dense and a counter costs 8 bytes, and the
// deterministic credit ships fewer bytes on every trace seed measured
// (docs/EXPERIMENTS.md, "VCover's load rule").
type VCover struct {
	cfg VCoverConfig

	idx   *objectIndex
	bip   *flow.Bipartite
	loads *gds.Cache
	// credit[o] is the miss cost paid out to missing object o since it
	// last became a load candidate; it stays below o's load cost.
	credit creditTable

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

// NewVCover returns a VCover policy with the given configuration.
func NewVCover(cfg VCoverConfig) *VCover {
	return &VCover{cfg: cfg}
}

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
	loadCache, err := gds.New(int64(capacity), p.cfg.GDSF)
	if err != nil {
		return err
	}
	p.idx = idx
	p.bip = flow.NewBipartite()
	p.loads = loadCache
	p.outstanding = make(map[model.ObjectID][]model.Update)
	p.owed = newIDSet(0)
	p.updObject = make(map[model.UpdateID]model.ObjectID)
	return nil
}

// Warm implements Warmable: adopt already-resident objects without a
// load (warm arrivals of a live reshard, and recovered residents). Each
// object is admitted to the GDS load cache only when it fits the
// remaining free capacity — warming never evicts, so the adopted set is
// order-independent up to capacity exhaustion; declined objects simply
// stay cold and reload on demand.
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
		l := int64(size)
		if _, ok := p.loads.Admit(gds.Entry{Key: int64(id), Size: l, Cost: l}); !ok {
			continue
		}
		// A warm arrival is as fresh as its old holder's copy: any
		// updates it missed are that holder's outstanding set, which the
		// warm list does not carry — treat the copy as fresh (nothing
		// outstanding), the same optimism a repository load has.
		if err := p.idx.markCached(id); err != nil {
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
// outstanding updates and their interaction-graph vertices, any
// forgotten object leaves with its credit, and a smaller capacity
// evicts in the LoadManager's Greedy-Dual-Size order until the
// residents fit.
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
			p.loads.Remove(int64(id))
			d.Evict = append(d.Evict, id)
		}
		p.idx.objects.remove(id)
		p.credit.set(id, 0)
	}
	evicted, err := p.loads.Resize(int64(capacity))
	if err != nil {
		return Decision{}, err
	}
	p.idx.capacity = capacity
	for _, key := range evicted {
		if err := p.evictObject(model.ObjectID(key)); err != nil {
			return Decision{}, err
		}
		d.Evict = append(d.Evict, model.ObjectID(key))
	}
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
	// Track usage of cached objects for the LoadManager's eviction
	// decisions regardless of which manager handles the query.
	allCached := true
	for _, id := range q.Objects {
		if p.idx.isCached(id) {
			p.loads.Touch(int64(id))
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
	var candidates []gds.Entry
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
		candidates = append(candidates, gds.Entry{Key: int64(id), Size: l, Cost: l})
		p.credit.set(id, 0)
		c -= need
	}
	if len(candidates) == 0 {
		return d, nil
	}

	// Lazy Greedy-Dual-Size decides the actual loads and evictions.
	res := p.loads.AdmitBatch(candidates)
	for _, key := range res.Evict {
		id := model.ObjectID(key)
		if err := p.evictObject(id); err != nil {
			return Decision{}, err
		}
		d.Evict = append(d.Evict, id)
		p.stats.ObjectsEvicted++
	}
	for _, key := range res.Load {
		id := model.ObjectID(key)
		// A load bulk-copies the object including all updates received
		// while it was away: the object arrives fresh on both sides
		// ("Both server and cache mark o fresh"), with nothing
		// outstanding.
		if err := p.idx.markCached(id); err != nil {
			return Decision{}, err
		}
		d.Load = append(d.Load, id)
		p.stats.ObjectsLoaded++
	}
	return d, nil
}

// evictObject drops an object from the mirror along with every piece of
// decision state attached to it: outstanding updates and their
// interaction-graph vertices.
func (p *VCover) evictObject(id model.ObjectID) error {
	if err := p.idx.markEvicted(id); err != nil {
		return err
	}
	for _, u := range p.outstanding[id] {
		p.bip.RemoveRight(int64(u.ID))
		delete(p.updObject, u.ID)
	}
	delete(p.outstanding, id)
	p.owed.remove(id)
	return nil
}

// CachedObjects returns the mirror's resident set, for tests and the
// live cache service.
func (p *VCover) CachedObjects() []model.ObjectID { return p.idx.cachedObjects() }
