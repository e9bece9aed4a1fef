package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// refState is the ground truth runReference keeps.
type refState struct {
	sizes    map[model.ObjectID]cost.Bytes
	cached   map[model.ObjectID]struct{}
	used     cost.Bytes
	capacity cost.Bytes
	// exemptUsed is the preload occupancy of capacity-exempt yardsticks
	// (Replica); dynamic violations are measured against
	// max(capacity, exemptUsed).
	exemptUsed cost.Bytes

	// pending maps outstanding update IDs (for cached objects) to the
	// update; perObject indexes them for eviction cleanup and currency
	// checks.
	pending   map[model.UpdateID]model.Update
	perObject map[model.ObjectID]map[model.UpdateID]struct{}
}

// runReference is the simulator loop Run replaced, kept as the oracle
// of TestQuickRunMatchesReference: its own copy of the ground truth and
// of the evict → load → arrive → ship → answer steps.
func runReference(policy core.Policy, objects []model.Object, events []model.Event, cfg Config) (*Result, error) {
	if policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	if cfg.CacheCapacity < 0 {
		return nil, fmt.Errorf("sim: negative capacity")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 5000
	}
	st := &refState{
		sizes:     make(map[model.ObjectID]cost.Bytes, len(objects)),
		cached:    make(map[model.ObjectID]struct{}),
		capacity:  cfg.CacheCapacity,
		pending:   make(map[model.UpdateID]model.Update),
		perObject: make(map[model.ObjectID]map[model.UpdateID]struct{}),
	}
	for _, o := range objects {
		st.sizes[o.ID] = o.Size
	}

	if err := policy.Init(objects, cfg.CacheCapacity); err != nil {
		return nil, fmt.Errorf("sim: init %s: %w", policy.Name(), err)
	}

	res := &Result{Policy: policy.Name()}
	var ledger cost.Ledger

	// Preloading yardsticks start with a resident set.
	if pre := core.OptionalOf(policy).Preloader; pre != nil {
		objs, charge := pre.Preload()
		for _, id := range objs {
			size, ok := st.sizes[id]
			if !ok {
				return nil, fmt.Errorf("sim: preload of unknown object %d", id)
			}
			if _, dup := st.cached[id]; dup {
				return nil, fmt.Errorf("sim: duplicate preload of object %d", id)
			}
			st.cached[id] = struct{}{}
			st.used += size
			if charge {
				ledger.Charge(cost.ObjectLoad, size)
				res.Loads++
			}
		}
		st.exemptUsed = st.used
	}
	if st.used > res.MaxUsed {
		res.MaxUsed = st.used
	}

	violate := func(format string, args ...any) {
		if len(res.Violations) < 100 { // cap memory on broken policies
			res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
		}
	}

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
			if _, dup := st.sizes[b.Object.ID]; dup {
				return nil, fmt.Errorf("sim: birth of existing object %d at event %d", b.Object.ID, e.Seq)
			}
			st.sizes[b.Object.ID] = b.Object.Size
			d, err = policy.AddObjects([]model.Object{b.Object})
		}
		if err != nil {
			return nil, fmt.Errorf("sim: %s at event %d: %w", policy.Name(), e.Seq, err)
		}

		// 1. Evictions.
		for _, id := range d.Evict {
			if _, ok := st.cached[id]; !ok {
				violate("event %d: evict of non-resident object %d", e.Seq, id)
				continue
			}
			delete(st.cached, id)
			st.used -= st.sizes[id]
			for uid := range st.perObject[id] {
				delete(st.pending, uid)
			}
			delete(st.perObject, id)
			res.Evictions++
		}
		// 2. Loads (the object arrives fresh: any updates that occurred
		// while it was away are part of the copy).
		for _, id := range d.Load {
			size, ok := st.sizes[id]
			if !ok {
				violate("event %d: load of unknown object %d", e.Seq, id)
				continue
			}
			if _, dup := st.cached[id]; dup {
				violate("event %d: load of already-resident object %d", e.Seq, id)
				continue
			}
			st.cached[id] = struct{}{}
			st.used += size
			ledger.Charge(cost.ObjectLoad, size)
			res.Loads++
		}
		// A capacity-exempt mirror (Replica) grows with the repository:
		// its birth-time loads raise the exempt allowance the way its
		// preload established it.
		if e.Kind == model.EventBirth && st.exemptUsed > 0 {
			st.exemptUsed = maxBytes(st.exemptUsed, st.used)
		}
		if limit := maxBytes(st.capacity, st.exemptUsed); st.used > limit {
			violate("event %d: cache over capacity: %v > %v", e.Seq, st.used, limit)
		}
		if st.used > res.MaxUsed {
			res.MaxUsed = st.used
		}

		// 3. The update itself arrives at the repository; outstanding
		// bookkeeping applies only to resident objects.
		if e.Kind == model.EventUpdate {
			u := e.Update
			if _, ok := st.cached[u.Object]; ok {
				st.pending[u.ID] = *u
				if st.perObject[u.Object] == nil {
					st.perObject[u.Object] = make(map[model.UpdateID]struct{})
				}
				st.perObject[u.Object][u.ID] = struct{}{}
			}
		}

		// 4. Update shipments.
		for _, uid := range d.ApplyUpdates {
			u, ok := st.pending[uid]
			if !ok {
				violate("event %d: shipping update %d that is not outstanding", e.Seq, uid)
				continue
			}
			ledger.Charge(cost.UpdateShip, u.Cost)
			res.UpdatesShipped++
			delete(st.pending, uid)
			delete(st.perObject[u.Object], uid)
		}

		// 5. Answer the query.
		if e.Kind == model.EventQuery {
			q := e.Query
			if d.ShipQuery {
				ledger.Charge(cost.QueryShip, q.Cost)
				res.QueriesShipped++
			} else {
				res.QueriesAtCache++
				for _, id := range q.Objects {
					if _, ok := st.cached[id]; !ok {
						violate("event %d: query %d answered at cache but object %d absent",
							e.Seq, q.ID, id)
						continue
					}
					for uid := range st.perObject[id] {
						u := st.pending[uid]
						if model.UpdateRequired(&u, q) {
							violate("event %d: query %d answered stale: update %d on object %d unapplied",
								e.Seq, q.ID, uid, id)
						}
					}
				}
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

func maxBytes(a, b cost.Bytes) cost.Bytes {
	if a > b {
		return a
	}
	return b
}

// randomGrowthTrace is randomTrace with births: objects are published
// mid-trace under the next free ID, and later queries and updates may
// touch them.
func randomGrowthTrace(rng *rand.Rand, objects []model.Object, n int) []model.Event {
	live := make([]model.ObjectID, len(objects))
	for i, o := range objects {
		live[i] = o.ID
	}
	next := live[len(live)-1] + 1
	events := make([]model.Event, 0, n)
	var (
		qid model.QueryID
		uid model.UpdateID
	)
	for i := 0; i < n; i++ {
		seq, t := int64(i), time.Duration(i+1)*time.Second
		switch r := rng.Intn(10); {
		case r == 0:
			events = append(events, model.Event{Seq: seq, Kind: model.EventBirth, Birth: &model.Birth{
				Object: model.Object{ID: next, Size: cost.Bytes(rng.Intn(1<<30) + 1<<20)},
				Time:   t,
			}})
			live = append(live, next)
			next++
		case r < 6:
			qid++
			objs := make([]model.ObjectID, 0, 3)
			for _, k := range rng.Perm(len(live))[:min(len(live), rng.Intn(3)+1)] {
				objs = append(objs, live[k])
			}
			tol := []time.Duration{model.NoTolerance, model.AnyStaleness, time.Duration(rng.Intn(10)) * time.Second}[rng.Intn(3)]
			events = append(events, model.Event{Seq: seq, Kind: model.EventQuery, Query: &model.Query{
				ID: qid, Objects: objs, Cost: cost.Bytes(rng.Intn(1<<28) + 1), Tolerance: tol, Time: t,
			}})
		default:
			uid++
			events = append(events, model.Event{Seq: seq, Kind: model.EventUpdate, Update: &model.Update{
				ID: uid, Object: live[rng.Intn(len(live))], Cost: cost.Bytes(rng.Intn(1<<26) + 1), Time: t,
			}})
		}
	}
	return events
}

// randomScript draws a preload among the base objects and one arbitrary
// decision per event: evictions and loads of random objects
// (non-residents, residents, unknown IDs and repeats included),
// shipments of random update IDs (ghosts included) and at-cache answers
// whatever the cache holds.
func randomScript(rng *rand.Rand, events []model.Event, base int, maxID model.ObjectID) *Scripted {
	pick := func() model.ObjectID { return model.ObjectID(rng.Intn(int(maxID)+2) + 1) }
	s := &Scripted{PolicyName: "random-script"}
	for range rng.Intn(4) {
		s.Preloaded = append(s.Preloaded, model.ObjectID(rng.Intn(base)+1))
	}
	s.Preloaded = slices.Compact(slices.Sorted(slices.Values(s.Preloaded)))
	s.PreloadCharged = rng.Intn(2) == 0
	for _, e := range events {
		var d core.Decision
		d.ShipQuery = e.Kind == model.EventQuery && rng.Intn(2) == 0
		for range rng.Intn(2) {
			d.Evict = append(d.Evict, pick())
		}
		for range rng.Intn(2) {
			d.Load = append(d.Load, pick())
		}
		for range rng.Intn(2) {
			d.ApplyUpdates = append(d.ApplyUpdates, model.UpdateID(rng.Intn(len(events)+1)+1))
		}
		s.Decisions = append(s.Decisions, d)
	}
	return s
}

// sameResult compares two Results field by field, with Violations as
// sorted multisets: the stale check walks a map, so one event's
// violations may come out in any order. A capped list (100 entries) is
// compared by length only, since the cap may cut one event's group at a
// different member.
func sameResult(t *testing.T, got, want *Result) bool {
	t.Helper()
	g, w := *got, *want
	if len(g.Violations) == 100 || len(w.Violations) == 100 {
		g.Violations, w.Violations = nil, nil
		if len(got.Violations) != len(want.Violations) {
			t.Logf("%s: %d violations, reference %d", got.Policy, len(got.Violations), len(want.Violations))
			return false
		}
	} else {
		g.Violations = slices.Sorted(slices.Values(g.Violations))
		w.Violations = slices.Sorted(slices.Values(w.Violations))
	}
	if !reflect.DeepEqual(g, w) {
		t.Logf("%s:\n got       %+v\n reference %+v", got.Policy, g, w)
		return false
	}
	return true
}

// TestQuickRunMatchesReference: over random traces with births, Run
// (decisions fed through core.Applier) and runReference (the loop it
// replaced) agree on every Result field for the five policies and for a
// script of arbitrary, mostly invalid decisions.
func TestQuickRunMatchesReference(t *testing.T) {
	var violations int
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		objects := randomObjects(rng, rng.Intn(6)+2)
		events := randomGrowthTrace(rng, objects, rng.Intn(40)+1)
		var total cost.Bytes
		for _, o := range objects {
			total += o.Size
		}
		capacity := cost.Bytes(float64(total) * rng.Float64())
		cfg := Config{CacheCapacity: capacity, SampleEvery: rng.Intn(10) + 1}
		benefit := core.BenefitConfig{Window: rng.Intn(20) + 2}
		script := randomScript(rng, events, len(objects), model.ObjectID(len(objects)+len(events)))
		policies := []func() core.Policy{
			func() core.Policy { return core.NewNoCache() },
			func() core.Policy { return core.NewReplica() },
			func() core.Policy { return core.NewBenefit(benefit) },
			func() core.Policy { return core.NewVCover(core.DefaultVCoverConfig()) },
			func() core.Policy { return core.NewSOptimal(events) },
			func() core.Policy {
				s := *script
				return &s
			},
		}
		ok := true
		for _, policy := range policies {
			got, err := Run(policy(), objects, events, cfg)
			want, refErr := runReference(policy(), objects, events, cfg)
			if err != nil || refErr != nil {
				t.Logf("seed %d: error %v, reference error %v", seed, err, refErr)
				return false
			}
			violations += len(want.Violations)
			if !sameResult(t, got, want) {
				t.Logf("seed %d differs", seed)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if violations == 0 {
		t.Error("no trial produced a violation: the random script exercises nothing")
	}
}
