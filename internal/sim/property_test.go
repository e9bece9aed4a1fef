package sim

import (
	"math/rand"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// randomTrace builds an adversarial random workload: random object sets,
// heavy-tailed costs, mixed tolerances, bursts of updates.
func randomTrace(rng *rand.Rand, objects []model.Object, n int) []model.Event {
	events := make([]model.Event, 0, n)
	var qid model.QueryID
	var uid model.UpdateID
	for i := 0; i < n; i++ {
		t := time.Duration(i+1) * time.Second
		if rng.Intn(2) == 0 {
			qid++
			nObjs := rng.Intn(3) + 1
			seen := make(map[model.ObjectID]struct{}, nObjs)
			var objs []model.ObjectID
			for len(objs) < nObjs {
				id := objects[rng.Intn(len(objects))].ID
				if _, dup := seen[id]; dup {
					continue
				}
				seen[id] = struct{}{}
				objs = append(objs, id)
			}
			var tol time.Duration
			switch rng.Intn(3) {
			case 0:
				tol = model.NoTolerance
			case 1:
				tol = model.AnyStaleness
			default:
				tol = time.Duration(rng.Intn(100)) * time.Second
			}
			events = append(events, model.Event{
				Seq: int64(i), Kind: model.EventQuery,
				Query: &model.Query{
					ID: qid, Objects: objs,
					Cost:      cost.Bytes(rng.Intn(1<<28) + 1),
					Tolerance: tol, Time: t,
				},
			})
		} else {
			uid++
			events = append(events, model.Event{
				Seq: int64(i), Kind: model.EventUpdate,
				Update: &model.Update{
					ID:     uid,
					Object: objects[rng.Intn(len(objects))].ID,
					Cost:   cost.Bytes(rng.Intn(1<<26) + 1),
					Time:   t,
				},
			})
		}
	}
	return events
}

func randomObjects(rng *rand.Rand, n int) []model.Object {
	objs := make([]model.Object, n)
	for i := range objs {
		objs[i] = model.Object{
			ID:   model.ObjectID(i + 1),
			Size: cost.Bytes(rng.Intn(1<<30) + 1<<20),
		}
	}
	return objs
}

// TestPoliciesNeverViolateOnRandomWorkloads is the central robustness
// property: whatever the workload, every policy must respect the cache
// capacity and every query's staleness tolerance — the simulator checks
// both on every event.
func TestPoliciesNeverViolateOnRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		objects := randomObjects(rng, rng.Intn(20)+5)
		events := randomTrace(rng, objects, 3000)
		var total cost.Bytes
		for _, o := range objects {
			total += o.Size
		}
		capacity := cost.Bytes(float64(total) * (0.1 + rng.Float64()*0.9))

		policies := []core.Policy{
			core.NewNoCache(),
			core.NewReplica(),
			core.NewBenefit(core.BenefitConfig{Window: rng.Intn(400) + 10}),
			core.NewVCover(core.VCoverConfig{Seed: rng.Int63(), GDSF: rng.Intn(2) == 0}),
			core.NewSOptimal(events),
		}
		for _, p := range policies {
			res, err := Run(p, objects, events, Config{CacheCapacity: capacity, SampleEvery: 500})
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, p.Name(), err)
			}
			if len(res.Violations) > 0 {
				t.Fatalf("trial %d, %s violated: %s", trial, p.Name(), res.Violations[0])
			}
			if res.Queries+res.Updates != int64(len(events)) {
				t.Fatalf("trial %d, %s: event accounting off", trial, p.Name())
			}
			if res.QueriesAtCache+res.QueriesShipped != res.Queries {
				t.Fatalf("trial %d, %s: query split off", trial, p.Name())
			}
		}
	}
}

// TestVCoverBoundedByWorstCase checks a sanity invariant of the online
// algorithm on random workloads: its total traffic never exceeds
// NoCache + Replica + all-object loads (the trivial upper bound of
// doing everything).
func TestVCoverBoundedByWorstCase(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		objects := randomObjects(rng, 12)
		events := randomTrace(rng, objects, 2000)
		var sizes cost.Bytes
		for _, o := range objects {
			sizes += o.Size
		}
		res, err := Run(
			core.NewVCover(core.VCoverConfig{Seed: int64(trial), GDSF: true}),
			objects, events, Config{CacheCapacity: sizes / 3},
		)
		if err != nil {
			t.Fatal(err)
		}
		// Loads are justified by attributed shipping costs, so expected
		// load traffic is bounded by query traffic; allow generous slack
		// for the randomization's variance on adversarial traces.
		bound := 2*(model.TotalQueryCost(events)+model.TotalUpdateCost(events)) + 8*sizes
		if res.Total() > bound {
			t.Fatalf("trial %d: VCover %v above trivial bound %v", trial, res.Total(), bound)
		}
	}
}

// TestReplicaEqualsUpdateTraffic pins Replica's accounting exactly.
func TestReplicaEqualsUpdateTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objects := randomObjects(rng, 10)
	events := randomTrace(rng, objects, 2000)
	res, err := Run(core.NewReplica(), objects, events, Config{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatal(res.Violations[0])
	}
	if got, want := res.Total(), model.TotalUpdateCost(events); got != want {
		t.Errorf("Replica total %v != update traffic %v", got, want)
	}
}

// TestNoCacheEqualsQueryTraffic pins NoCache's accounting exactly.
func TestNoCacheEqualsQueryTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	objects := randomObjects(rng, 10)
	events := randomTrace(rng, objects, 2000)
	res, err := Run(core.NewNoCache(), objects, events, Config{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Total(), model.TotalQueryCost(events); got != want {
		t.Errorf("NoCache total %v != query traffic %v", got, want)
	}
}
