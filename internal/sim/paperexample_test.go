package sim

import (
	"testing"
	"time"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// TestPaperExamplePlanA replays the optimal strategy of Section 3.1:
// evict o3 and load o4 at the beginning, ship u1, u2, u4 and q7, for a
// total of 26 GB.
func TestPaperExamplePlanA(t *testing.T) {
	objects, initial, capacity, events := paperExample()
	plan := &Scripted{
		PolicyName: "PlanA",
		Preloaded:  initial,
		Decisions: []core.Decision{
			{Evict: []model.ObjectID{3}, Load: []model.ObjectID{4}}, // u1 arrives; reshape cache first
			{},                                     // u2
			{ApplyUpdates: []model.UpdateID{1, 2}}, // q3: ship u1, u2; answer at cache
			{},                                     // u4
			{},                                     // u6
			{ShipQuery: true},                      // q7: cheaper than shipping u6
			{},                                     // u5
			{ApplyUpdates: []model.UpdateID{4}},    // q8: ship u4; u5 is within tolerance
		},
	}
	res, err := Run(plan, objects, events, Config{CacheCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if got, want := res.Total(), 26*cost.GB; got != want {
		t.Errorf("Plan A cost = %v, want %v", got, want)
	}
	if res.QueriesAtCache != 2 || res.QueriesShipped != 1 {
		t.Errorf("query split = %d at cache / %d shipped, want 2/1",
			res.QueriesAtCache, res.QueriesShipped)
	}
}

// TestPaperExamplePlanB replays the alternative: load nothing, ship
// queries q3, q7, q8, for 28 GB.
func TestPaperExamplePlanB(t *testing.T) {
	objects, initial, capacity, events := paperExample()
	plan := &Scripted{
		PolicyName: "PlanB",
		Preloaded:  initial,
		Decisions: []core.Decision{
			{}, {}, // u1, u2
			{ShipQuery: true}, // q3
			{}, {},            // u4, u6
			{ShipQuery: true}, // q7
			{},                // u5
			{ShipQuery: true}, // q8
		},
	}
	res, err := Run(plan, objects, events, Config{CacheCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if got, want := res.Total(), 28*cost.GB; got != want {
		t.Errorf("Plan B cost = %v, want %v", got, want)
	}
}

// TestPaperExampleStaleAnswerCaught verifies the simulator rejects the
// illegal variant of Plan A that skips shipping u4 before answering q8
// at the cache.
func TestPaperExampleStaleAnswerCaught(t *testing.T) {
	objects, initial, capacity, events := paperExample()
	plan := &Scripted{
		Preloaded: initial,
		Decisions: []core.Decision{
			{Evict: []model.ObjectID{3}, Load: []model.ObjectID{4}},
			{},
			{ApplyUpdates: []model.UpdateID{1, 2}},
			{}, {},
			{ShipQuery: true},
			{},
			{}, // q8 answered at cache WITHOUT shipping u4: stale!
		},
	}
	res, err := Run(plan, objects, events, Config{CacheCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("expected a staleness violation")
	}
}

// TestPaperExampleToleranceMatters verifies that u5 really is skippable
// only because of q8's tolerance: a zero-tolerance q8 must trigger a
// violation under Plan A.
func TestPaperExampleToleranceMatters(t *testing.T) {
	objects, initial, capacity, events := paperExample()
	// Make q8 demand full currency.
	q8 := *events[7].Query
	q8.Tolerance = model.NoTolerance
	events[7].Query = &q8
	plan := &Scripted{
		Preloaded: initial,
		Decisions: []core.Decision{
			{Evict: []model.ObjectID{3}, Load: []model.ObjectID{4}},
			{},
			{ApplyUpdates: []model.UpdateID{1, 2}},
			{}, {},
			{ShipQuery: true},
			{},
			{ApplyUpdates: []model.UpdateID{4}}, // u5 now missing
		},
	}
	res, err := Run(plan, objects, events, Config{CacheCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("expected a staleness violation for unapplied u5")
	}
}

// TestPaperExampleVCover runs the actual VCover policy over the example
// sequence: starting from a cold cache it must satisfy every constraint
// and spend no more than NoCache would.
func TestPaperExampleVCover(t *testing.T) {
	objects, _, capacity, events := paperExample()
	res, err := Run(core.NewVCover(core.DefaultVCoverConfig()), objects, events,
		Config{CacheCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	// On an 8-event trace VCover's speculative loads cannot pay off, so
	// only bound its cost by NoCache plus the total size of everything
	// it could possibly load (o1+o2+o4 = 34 GB; o3 is never queried).
	noCache := model.TotalQueryCost(events)
	if res.Total() > noCache+34*cost.GB {
		t.Errorf("VCover cost %v above the NoCache+loads bound (%v)", res.Total(), noCache+34*cost.GB)
	}
}

// paperExample reconstructs the worked example of Section 3.1 (Figure 2
// of the paper): four data objects o1..o4, three of them initially
// cached, and a sequence of updates and queries over eight seconds for
// which two strategies compete:
//
//   - Plan A (26 GB): evict o3 and load o4 at the very beginning, then
//     ship updates u1, u2, u4 and query q7;
//   - Plan B (28 GB): load nothing and ship queries q3, q7 and q8.
//
// Plan A wins only because q8's tolerance for staleness allows omitting
// u5; were u5 required, Plan A would cost 31 GB and Plan B would become
// optimal — the paper's illustration of how slight workload variations
// flip the optimal decoupling.
//
// It returns the object set, the initially cached objects, the cache
// capacity, and the event sequence.
func paperExample() (objects []model.Object, initialCache []model.ObjectID, capacity cost.Bytes, events []model.Event) {
	objects = []model.Object{
		{ID: 1, Size: 10 * cost.GB}, // o1
		{ID: 2, Size: 8 * cost.GB},  // o2
		{ID: 3, Size: 12 * cost.GB}, // o3
		{ID: 4, Size: 16 * cost.GB}, // o4
	}
	initialCache = []model.ObjectID{1, 2, 3}
	capacity = 40 * cost.GB

	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }
	events = []model.Event{
		{Seq: 0, Kind: model.EventUpdate, Update: &model.Update{
			ID: 1, Object: 2, Cost: 1 * cost.GB, Time: sec(1)}}, // u1(o2, 1)
		{Seq: 1, Kind: model.EventUpdate, Update: &model.Update{
			ID: 2, Object: 1, Cost: 3 * cost.GB, Time: sec(2)}}, // u2(o1, 3)
		{Seq: 2, Kind: model.EventQuery, Query: &model.Query{
			ID: 3, Objects: []model.ObjectID{1, 2, 4}, Cost: 15 * cost.GB,
			Tolerance: model.NoTolerance, Time: sec(3)}}, // q3(o1,o2,o4; 15; t=0)
		{Seq: 3, Kind: model.EventUpdate, Update: &model.Update{
			ID: 4, Object: 4, Cost: 2 * cost.GB, Time: sec(4)}}, // u4(o4, 2)
		{Seq: 4, Kind: model.EventUpdate, Update: &model.Update{
			ID: 6, Object: 2, Cost: 6 * cost.GB, Time: sec(5)}}, // u6(o2, 6)
		{Seq: 5, Kind: model.EventQuery, Query: &model.Query{
			ID: 7, Objects: []model.ObjectID{2}, Cost: 4 * cost.GB,
			Tolerance: model.NoTolerance, Time: sec(6)}}, // q7(o2; 4; t=0)
		{Seq: 6, Kind: model.EventUpdate, Update: &model.Update{
			ID: 5, Object: 1, Cost: 5 * cost.GB, Time: sec(7)}}, // u5(o1, 5)
		{Seq: 7, Kind: model.EventQuery, Query: &model.Query{
			ID: 8, Objects: []model.ObjectID{1, 4}, Cost: 9 * cost.GB,
			Tolerance: 2 * time.Second, Time: sec(8)}}, // q8(o1,o4; 9; t=2s): u5 within tolerance
	}
	return objects, initialCache, capacity, events
}
