package sim

import (
	"math"
	"slices"
	"time"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// LatencyModel estimates per-query response times from the decisions a
// policy makes. The paper focuses its evaluation on network traffic and
// defers latency to Section 4's discussion ("decisions that reduce
// network traffic naturally decrease response times of queries that
// access objects in cache, but queries for which updates need to be
// applied may be delayed"); this model quantifies exactly that effect
// and is what the preshipping extension improves.
//
// Response time of a query:
//
//   - answered at cache, fresh:        LocalTime
//   - answered at cache after updates: LocalTime + RTT + update bytes / Bandwidth
//   - shipped to the repository:       RTT + result bytes / Bandwidth
//
// Object loads happen in the background and do not delay the query that
// triggered them.
type LatencyModel struct {
	// RTT is the cache↔repository round-trip time.
	RTT time.Duration
	// Bandwidth is the WAN bandwidth in bytes per second.
	Bandwidth cost.Bytes
	// LocalTime is the cache-local execution time of a query.
	LocalTime time.Duration
}

// DefaultLatencyModel models a well-provisioned research WAN: 40 ms
// RTT, 1 Gbit/s (125 MB/s), 5 ms local execution.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		RTT:       40 * time.Millisecond,
		Bandwidth: 125 * cost.MB,
		LocalTime: 5 * time.Millisecond,
	}
}

func (m LatencyModel) transfer(b cost.Bytes) time.Duration {
	if m.Bandwidth <= 0 {
		return 0
	}
	sec := float64(b) / float64(m.Bandwidth)
	return time.Duration(sec * float64(time.Second))
}

// QueryTime returns the modeled response time for one query decision.
// updateBytes is the total size of updates shipped synchronously for the
// query (zero if none).
func (m LatencyModel) QueryTime(shipped bool, resultBytes, updateBytes cost.Bytes) time.Duration {
	if shipped {
		return m.RTT + m.transfer(resultBytes)
	}
	t := m.LocalTime
	if updateBytes > 0 {
		t += m.RTT + m.transfer(updateBytes)
	}
	return t
}

// LatencySummary aggregates per-query response times.
type LatencySummary struct {
	Queries int64         `json:"queries"`
	Mean    time.Duration `json:"mean"`
	P50     time.Duration `json:"p50"`
	P95     time.Duration `json:"p95"`
	P99     time.Duration `json:"p99"`
	Max     time.Duration `json:"max"`
}

// RunWithLatency replays events like Run and additionally models
// response times for every query under the given latency model, priced
// from the Plan its decision applied. The traffic accounting is
// identical to Run.
func RunWithLatency(policy core.Policy, objects []model.Object, events []model.Event,
	cfg Config, lm LatencyModel) (*Result, *LatencySummary, error) {

	var samples []time.Duration
	res, err := run(policy, objects, events, cfg, func(e *model.Event, p core.Plan) {
		if e.Kind != model.EventQuery {
			return
		}
		var updBytes cost.Bytes
		for _, u := range p.Ship {
			updBytes += u.Cost
		}
		samples = append(samples, lm.QueryTime(p.ShipQuery, e.Query.Cost, updBytes))
	})
	if err != nil {
		return nil, nil, err
	}
	return res, summarize(samples), nil
}

func summarize(samples []time.Duration) *LatencySummary {
	s := &LatencySummary{Queries: int64(len(samples))}
	if len(samples) == 0 {
		return s
	}
	slices.Sort(samples)
	var total time.Duration
	for _, t := range samples {
		total += t
	}
	s.Mean = total / time.Duration(len(samples))
	s.P50 = percentile(samples, 0.50)
	s.P95 = percentile(samples, 0.95)
	s.P99 = percentile(samples, 0.99)
	s.Max = samples[len(samples)-1]
	return s
}

// percentile is the nearest-rank p-quantile of a non-empty sorted slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}
