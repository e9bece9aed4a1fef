// Package sim replays a workload trace against a decoupling policy,
// charging every data movement to a traffic ledger, and verifying on
// every event that the policy respected the two hard constraints of the
// decoupling problem: the cache capacity and each query's tolerance for
// staleness.
//
// The ground truth is core.Applier, the same bookkeeping a live cache
// node applies its decisions to: Run is the policy's decisions fed
// through Apply over an in-memory repository, with the Plan's loads,
// update shipments and query shipments charged the moment they are
// decided. The simulator is deliberately paranoid: policies keep their
// own state mirrors, and any divergence the applier catches (shipping an
// update that is not outstanding, loading an object that is already
// resident, answering a stale query at the cache) is recorded as a
// violation. Experiments assert zero violations.
package sim

import (
	"fmt"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// Config parameterizes a simulation run.
type Config struct {
	// CacheCapacity is the middleware cache size (paper default: 30% of
	// the server's total).
	CacheCapacity cost.Bytes
	// SampleEvery controls the cumulative-cost series resolution: one
	// point per this many events (default 5000).
	SampleEvery int
}

// Point is one sample of the cumulative traffic series (the y-axis of
// Figures 7b and 8b).
type Point struct {
	Seq        int64      `json:"seq"`
	Total      cost.Bytes `json:"total"`
	QueryShip  cost.Bytes `json:"queryShip"`
	UpdateShip cost.Bytes `json:"updateShip"`
	ObjectLoad cost.Bytes `json:"objectLoad"`
}

// Result summarizes a simulation run.
type Result struct {
	Policy string        `json:"policy"`
	Ledger cost.Snapshot `json:"ledger"`
	Series []Point       `json:"series"`

	Queries        int64 `json:"queries"`
	QueriesShipped int64 `json:"queriesShipped"`
	QueriesAtCache int64 `json:"queriesAtCache"`
	Updates        int64 `json:"updates"`
	UpdatesShipped int64 `json:"updatesShipped"`
	Births         int64 `json:"births"`
	Loads          int64 `json:"loads"`
	Evictions      int64 `json:"evictions"`

	// MaxUsed is the peak cache occupancy observed.
	MaxUsed cost.Bytes `json:"maxUsed"`
	// Violations lists every constraint breach; correct policies produce
	// none.
	Violations []string `json:"violations,omitempty"`
}

// Total returns the final total traffic.
func (r *Result) Total() cost.Bytes { return r.Ledger.Total() }

// Run replays events against the policy and returns the accounting. An
// error is returned for structural problems (nil policy, invalid
// events); constraint breaches by the policy are reported as violations
// in the Result instead.
func Run(policy core.Policy, objects []model.Object, events []model.Event, cfg Config) (*Result, error) {
	if policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	if cfg.CacheCapacity < 0 {
		return nil, fmt.Errorf("sim: negative capacity")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 5000
	}
	sizes := make(map[model.ObjectID]cost.Bytes, len(objects))
	for _, o := range objects {
		sizes[o.ID] = o.Size
	}
	cache := core.NewApplier(cfg.CacheCapacity, func(id model.ObjectID) (cost.Bytes, bool) {
		size, ok := sizes[id]
		return size, ok
	})

	if err := policy.Init(objects, cfg.CacheCapacity); err != nil {
		return nil, fmt.Errorf("sim: init %s: %w", policy.Name(), err)
	}

	res := &Result{Policy: policy.Name()}
	var ledger cost.Ledger

	// Preloading yardsticks start with a resident set.
	if pre, ok := policy.(core.Preloader); ok {
		objs, charge := pre.Preload()
		if err := cache.Preload(objs); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if charge {
			for _, id := range objs {
				ledger.Charge(cost.ObjectLoad, sizes[id])
				res.Loads++
			}
		}
	}
	res.MaxUsed = cache.Used()

	for i := range events {
		e := &events[i]
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}

		var (
			d   core.Decision
			err error
		)
		switch e.Kind {
		case model.EventQuery:
			res.Queries++
			d, err = policy.OnQuery(e.Query)
		case model.EventUpdate:
			res.Updates++
			d, err = policy.OnUpdate(e.Update)
		case model.EventBirth:
			// A new object is published at the repository: the ground
			// truth grows, and the policy's universe must grow with it.
			res.Births++
			b := e.Birth
			if _, dup := sizes[b.Object.ID]; dup {
				return nil, fmt.Errorf("sim: birth of existing object %d at event %d", b.Object.ID, e.Seq)
			}
			sizes[b.Object.ID] = b.Object.Size
			g, ok := policy.(core.Grower)
			if !ok {
				return nil, fmt.Errorf("sim: policy %s cannot grow its universe", policy.Name())
			}
			d, err = g.AddObjects([]model.Object{b.Object})
		}
		if err != nil {
			return nil, fmt.Errorf("sim: %s at event %d: %w", policy.Name(), e.Seq, err)
		}

		p, violations := cache.Apply(e, d)
		// Keep at most 100: cap memory on broken policies.
		res.Violations = append(res.Violations, violations[:min(len(violations), 100-len(res.Violations))]...)
		res.Evictions += int64(len(p.Evict))
		for _, o := range p.Load {
			ledger.Charge(cost.ObjectLoad, o.Size)
			res.Loads++
		}
		res.MaxUsed = max(res.MaxUsed, cache.Used())
		for _, u := range p.Ship {
			ledger.Charge(cost.UpdateShip, u.Cost)
			res.UpdatesShipped++
		}
		if e.Kind == model.EventQuery {
			if p.ShipQuery {
				ledger.Charge(cost.QueryShip, e.Query.Cost)
				res.QueriesShipped++
			} else {
				res.QueriesAtCache++
			}
		}

		if (i+1)%cfg.SampleEvery == 0 || i == len(events)-1 {
			snap := ledger.Snapshot()
			res.Series = append(res.Series, Point{
				Seq:        e.Seq,
				Total:      snap.Total(),
				QueryShip:  snap.QueryShip,
				UpdateShip: snap.UpdateShip,
				ObjectLoad: snap.ObjectLoad,
			})
		}
	}

	res.Ledger = ledger.Snapshot()
	return res, nil
}
