// Package sim replays a workload trace against a decoupling policy,
// charging every data movement to a traffic ledger, and verifying on
// every event that the policy respected the two hard constraints of the
// decoupling problem: the cache capacity and each query's tolerance for
// staleness.
//
// The ground truth is core.Shard, the same state machine a live cache
// node drives: Run replays the trace through it over an in-memory
// repository, with each Plan's loads, update shipments and query
// shipments charged the moment they are decided. The simulator is
// deliberately paranoid: policies keep their own state mirrors, and any
// divergence the applier catches (shipping an update that is not
// outstanding, loading an object that is already resident, answering a
// stale query at the cache) is recorded as a violation. Experiments
// assert zero violations.
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
	shard := core.NewShard(core.ShardConfig{Policy: policy, Objects: objects, Capacity: cfg.CacheCapacity})
	start, err := shard.Init(nil)
	if err != nil {
		return nil, fmt.Errorf("sim: init %s: %w", policy.Name(), err)
	}

	res := &Result{Policy: policy.Name()}
	var ledger cost.Ledger

	// Preloading yardsticks start with a resident set.
	if start.Charge {
		for _, o := range start.Preload {
			ledger.Charge(cost.ObjectLoad, o.Size)
			res.Loads++
		}
	}
	res.MaxUsed = shard.Used()

	for i := range events {
		e := &events[i]
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		switch e.Kind {
		case model.EventQuery:
			res.Queries++
		case model.EventUpdate:
			res.Updates++
		case model.EventBirth:
			// A new object is published at the repository: the ground
			// truth grows, and the policy's universe must grow with it.
			res.Births++
		}
		step, err := shard.Replay(e)
		if err != nil {
			return nil, fmt.Errorf("sim: %s at event %d: %w", policy.Name(), e.Seq, err)
		}

		// Keep at most 100: cap memory on broken policies.
		res.Violations = append(res.Violations, step.Violations[:min(len(step.Violations), 100-len(res.Violations))]...)
		res.Evictions += int64(len(step.Evict))
		for _, o := range step.Load {
			ledger.Charge(cost.ObjectLoad, o.Size)
			res.Loads++
		}
		res.MaxUsed = max(res.MaxUsed, shard.Used())
		for _, u := range step.Ship {
			ledger.Charge(cost.UpdateShip, u.Cost)
			res.UpdatesShipped++
		}
		if e.Kind == model.EventQuery {
			if step.ShipQuery {
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
