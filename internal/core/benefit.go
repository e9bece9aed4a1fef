package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// BenefitConfig parameterizes the Benefit heuristic.
type BenefitConfig struct {
	// Window is δ, the number of events per decision window (paper
	// default: 1000, chosen by parameter sweep).
	Window int
}

const (
	// benefitAlpha is the exponential-smoothing learning parameter α.
	benefitAlpha = 0.3
	// loadAmortization spreads an uncached object's load-cost penalty
	// over this many windows when computing its would-be benefit. The
	// paper says the benefit of a non-cached object is "further
	// reduce[d] by the cost to load the object" without specifying the
	// horizon; subtracting the full load cost from every window's
	// benefit would make the heuristic refuse to ever load an object
	// whose per-window savings are below its full load cost — i.e.
	// degenerate to NoCache on any realistic window size. Amortizing
	// over a few windows preserves the heuristic's greedy character
	// while letting it actually cache, as it visibly does in the
	// paper's figures. 1 would reproduce the literal reading.
	loadAmortization = 16
)

// DefaultBenefitConfig returns the paper's tuned window.
func DefaultBenefitConfig() BenefitConfig {
	return BenefitConfig{Window: 1000}
}

// Benefit is the alternative, heuristics-based algorithm of Section 5 —
// an exponential-smoothing greedy scheme representative of commercial
// dynamic-data caches (and of the online view-materialization systems of
// Labrinidis & Roussopoulos). The event sequence is divided into windows
// of δ events. During a window the cache set is frozen: queries whose
// objects are all cached are answered locally (updates are pushed
// eagerly for cached objects, so they are always current); everything
// else is shipped. At each window boundary the per-object benefit of the
// past window — query traffic saved, split among B(q) in proportion to
// object sizes, minus update traffic caused, minus (for non-cached
// objects) the load cost — feeds the forecast
//
//	µᵢ = (1−α)·µᵢ₋₁ + α·bᵢ₋₁
//
// (α is benefitAlpha, 0.3; δ is the one setting), and objects with
// positive forecast are cached greedily in decreasing µ order until the
// capacity is full.
//
// Its weaknesses (Section 5): it ignores the combinatorial structure of
// the decoupling problem by splitting query costs proportionally, its
// decisions hinge on the window size, and it keeps per-object state for
// every object whether cached or not.
type Benefit struct {
	cfg BenefitConfig

	idx *objectIndex

	mu         map[model.ObjectID]float64 // the forecast µ
	winBenefit map[model.ObjectID]float64 // b for the current window
	eventCount int64

	stats BenefitStats
}

// BenefitStats counts internal decisions.
type BenefitStats struct {
	QueriesAtCache int64
	QueriesShipped int64
	UpdatesShipped int64
	ObjectsLoaded  int64
	ObjectsEvicted int64
	Windows        int64
}

// NewBenefit returns a Benefit policy.
func NewBenefit(cfg BenefitConfig) *Benefit {
	return &Benefit{cfg: cfg}
}

// Name implements Policy.
func (p *Benefit) Name() string { return "Benefit" }

// Stats returns internal decision counters.
func (p *Benefit) Stats() BenefitStats { return p.stats }

// Init implements Policy.
func (p *Benefit) Init(objects []model.Object, capacity cost.Bytes) error {
	if p.idx != nil {
		return fmt.Errorf("core: Benefit initialized twice")
	}
	if p.cfg.Window <= 0 {
		return fmt.Errorf("core: Benefit window must be positive, got %d", p.cfg.Window)
	}
	idx, err := newObjectIndex(objects, capacity)
	if err != nil {
		return err
	}
	p.idx = idx
	p.mu = make(map[model.ObjectID]float64, len(objects))
	p.winBenefit = make(map[model.ObjectID]float64, len(objects))
	return nil
}

// Warm implements Warmable: adopt already-resident objects that fit
// the capacity. Warming leaves the forecasts alone; the next window
// boundary judges an adopted object like any other cached one.
func (p *Benefit) Warm(ids []model.ObjectID) ([]model.ObjectID, error) {
	if p.idx == nil {
		return nil, fmt.Errorf("core: Benefit not initialized")
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
		if err := p.idx.markCached(id); err != nil {
			return nil, err
		}
		adopted = append(adopted, id)
	}
	return adopted, nil
}

// AddObjects implements Grower: newborns enter the forecast with no
// history (µ = 0) and start uncached; the next window boundary judges
// them like any other object once queries accrue benefit on them.
func (p *Benefit) AddObjects(objs []model.Object) (Decision, error) {
	if p.idx == nil {
		return Decision{}, fmt.Errorf("core: Benefit not initialized")
	}
	for _, o := range objs {
		if err := p.idx.addObject(o); err != nil {
			return Decision{}, err
		}
	}
	return Decision{}, nil
}

// Forget implements Forgetter: forgotten objects leave the forecast
// and, when resident, the cache; a smaller capacity then evicts the
// residents a window boundary would rank lowest until the rest fit.
func (p *Benefit) Forget(ids []model.ObjectID, capacity cost.Bytes) (Decision, error) {
	if p.idx == nil {
		return Decision{}, fmt.Errorf("core: Benefit not initialized")
	}
	var d Decision
	for _, id := range ids {
		if p.idx.isCached(id) {
			_ = p.idx.markEvicted(id)
			d.Evict = append(d.Evict, id)
		}
		p.idx.objects.remove(id)
		delete(p.mu, id)
		delete(p.winBenefit, id)
	}
	p.idx.capacity = capacity
	if p.idx.used > capacity {
		// replan's ranking, reversed: lowest forecast first, ties to the
		// larger ID.
		cached := p.CachedObjects()
		slices.SortStableFunc(cached, func(a, b model.ObjectID) int {
			return cmp.Or(cmp.Compare(p.mu[a], p.mu[b]), cmp.Compare(b, a))
		})
		for _, id := range cached {
			if p.idx.used <= capacity {
				break
			}
			_ = p.idx.markEvicted(id)
			d.Evict = append(d.Evict, id)
		}
	}
	p.stats.ObjectsEvicted += int64(len(d.Evict))
	return d, nil
}

// OnQuery implements Policy.
func (p *Benefit) OnQuery(q *model.Query) (Decision, error) {
	if p.idx == nil {
		return Decision{}, fmt.Errorf("core: Benefit not initialized")
	}
	d := p.tickWindow()

	// Accrue benefit: the query's cost is what caching B(q) saves (or
	// would save), divided among the objects in proportion to size.
	var totalSize cost.Bytes
	for _, id := range q.Objects {
		size, err := p.idx.size(id)
		if err != nil {
			return Decision{}, err
		}
		totalSize += size
	}
	for _, id := range q.Objects {
		size, _ := p.idx.size(id)
		share := float64(q.Cost)
		if totalSize > 0 {
			share *= float64(size) / float64(totalSize)
		} else {
			share /= float64(len(q.Objects))
		}
		p.winBenefit[id] += share
	}

	if p.idx.allCached(q.Objects) {
		// Cached objects are kept current by eager update shipping, so
		// any tolerance is satisfied.
		p.stats.QueriesAtCache++
		return d, nil
	}
	d.ShipQuery = true
	p.stats.QueriesShipped++
	return d, nil
}

// OnUpdate implements Policy: cached objects receive updates eagerly —
// the push model the benefit metric assumes.
func (p *Benefit) OnUpdate(u *model.Update) (Decision, error) {
	if p.idx == nil {
		return Decision{}, fmt.Errorf("core: Benefit not initialized")
	}
	d := p.tickWindow()
	if _, err := p.idx.size(u.Object); err != nil {
		return Decision{}, err
	}
	p.winBenefit[u.Object] -= float64(u.Cost)
	if p.idx.isCached(u.Object) {
		d.ApplyUpdates = append(d.ApplyUpdates, u.ID)
		p.stats.UpdatesShipped++
	}
	return d, nil
}

// tickWindow advances the event counter and, at the first event of each
// window after the first, recomputes the cache placement, returning the
// load/evict actions.
func (p *Benefit) tickWindow() Decision {
	p.eventCount++
	if p.eventCount > 1 && (p.eventCount-1)%int64(p.cfg.Window) == 0 {
		return p.replan()
	}
	return Decision{}
}

// replan performs the window-boundary placement decision.
func (p *Benefit) replan() Decision {
	p.stats.Windows++
	// Fold the window's benefit into the forecast.
	for o := range p.idx.objects.all() {
		id := o.ID
		b := p.winBenefit[id]
		if !p.idx.isCached(id) {
			// A non-cached object would pay its load cost first; the
			// penalty is amortized over loadAmortization windows (see
			// its comment).
			size, _ := p.idx.size(id)
			b -= float64(size) / loadAmortization
		}
		p.mu[id] = (1-benefitAlpha)*p.mu[id] + benefitAlpha*b
		p.winBenefit[id] = 0
	}

	// Greedy placement: positive-forecast objects in decreasing µ.
	ids := make([]model.ObjectID, 0, p.idx.objects.len())
	for o := range p.idx.objects.all() {
		if p.mu[o.ID] > 0 {
			ids = append(ids, o.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if p.mu[ids[i]] != p.mu[ids[j]] {
			return p.mu[ids[i]] > p.mu[ids[j]]
		}
		return ids[i] < ids[j]
	})
	target := make(map[model.ObjectID]struct{}, len(ids))
	var used cost.Bytes
	for _, id := range ids {
		size, _ := p.idx.size(id)
		if used+size > p.idx.capacity {
			continue
		}
		target[id] = struct{}{}
		used += size
	}

	// Diff against the current contents. Objects already present do not
	// have to be reloaded (Section 5).
	var d Decision
	for id := range p.idx.cached.all() {
		if _, keep := target[id]; !keep {
			d.Evict = append(d.Evict, id)
		}
	}
	for id := range target {
		if !p.idx.isCached(id) {
			d.Load = append(d.Load, id)
		}
	}
	slices.Sort(d.Evict)
	slices.Sort(d.Load)
	for _, id := range d.Evict {
		// Mirror maintenance; errors impossible by construction.
		_ = p.idx.markEvicted(id)
		p.stats.ObjectsEvicted++
	}
	for _, id := range d.Load {
		_ = p.idx.markCached(id)
		p.stats.ObjectsLoaded++
	}
	return d
}

// CachedObjects returns the mirror's resident set (for tests).
func (p *Benefit) CachedObjects() []model.ObjectID { return p.idx.cachedObjects() }
