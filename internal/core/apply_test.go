package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// TestApplierSequence walks one Applier through every step and every
// violation kind, checking the Plan, the violations and the state after
// each event.
func TestApplierSequence(t *testing.T) {
	sizes := map[model.ObjectID]cost.Bytes{1: 10, 2: 20, 3: 30}
	a := NewApplier(40, func(id model.ObjectID) (cost.Bytes, bool) {
		s, ok := sizes[id]
		return s, ok
	})
	if err := a.Preload([]model.ObjectID{9}); err == nil {
		t.Error("preload of an unknown object succeeded")
	}
	if err := a.Preload([]model.ObjectID{1, 1}); err == nil {
		t.Error("duplicate preload succeeded")
	}

	seq := int64(0)
	apply := func(e model.Event, d Decision, want ...string) Plan {
		t.Helper()
		seq++
		e.Seq = seq
		p, violations := a.Apply(&e, d)
		if len(violations) != len(want) {
			t.Fatalf("event %d: violations %q, want %d matching %q", seq, violations, len(want), want)
		}
		for i, v := range violations {
			if !strings.Contains(v, want[i]) {
				t.Errorf("event %d: violation %q, want one containing %q", seq, v, want[i])
			}
		}
		return p
	}
	query := func(tol time.Duration, objs ...model.ObjectID) model.Event {
		return model.Event{Kind: model.EventQuery, Query: &model.Query{ID: model.QueryID(seq + 1), Objects: objs, Cost: 5, Tolerance: tol, Time: time.Duration(seq+1) * time.Second}}
	}
	update := func(id model.UpdateID, obj model.ObjectID) model.Event {
		return model.Event{Kind: model.EventUpdate, Update: &model.Update{ID: id, Object: obj, Cost: 3, Time: time.Duration(seq+1) * time.Second}}
	}

	// Object 1 was preloaded by the duplicate attempt; 2 loads, 9 is
	// unknown, 1 is resident, 3 is absent for eviction.
	p := apply(query(0, 2), Decision{ShipQuery: true, Evict: []model.ObjectID{3}, Load: []model.ObjectID{2, 9, 1}},
		"evict of non-resident object 3", "load of unknown object 9", "load of already-resident object 1")
	if !p.ShipQuery || p.Stale || len(p.Evict) != 0 || !slices.Equal(p.Load, []model.Object{{ID: 2, Size: 20}}) {
		t.Errorf("plan %+v", p)
	}
	// Over capacity: 10 + 20 + 30 > 40, until the next event evicts 3.
	apply(model.Event{Kind: model.EventUpdate, Update: &model.Update{ID: 100, Object: 3}}, Decision{Load: []model.ObjectID{3}},
		"cache over capacity")
	if got := a.Used(); got != 60 {
		t.Errorf("used = %v, want 60", got)
	}
	apply(update(1, 2), Decision{Evict: []model.ObjectID{3}})
	apply(update(2, 2), Decision{ApplyUpdates: []model.UpdateID{7}}, "shipping update 7 that is not outstanding")
	// At t(q)=0 both outstanding updates on 2 are required, and object 9
	// is absent.
	p = apply(query(0, 2, 9), Decision{}, "answered stale: update", "answered stale: update", "object 9 absent")
	if !p.Stale || p.ShipQuery {
		t.Errorf("stale answer plan %+v", p)
	}
	// Shipping update 1 leaves update 2, which any staleness tolerates.
	p = apply(query(model.AnyStaleness, 2), Decision{ApplyUpdates: []model.UpdateID{1}})
	if p.Stale || !slices.Equal(p.Ship, []model.Update{{ID: 1, Object: 2, Cost: 3, Time: 3 * time.Second}}) {
		t.Errorf("shipping plan %+v", p)
	}
	// A failed load of 2 forgets its outstanding update 2.
	a.Unload(2)
	a.Unload(2)
	apply(update(3, 1), Decision{ApplyUpdates: []model.UpdateID{2}}, "update 2 that is not outstanding")
	// Evicting 1 forgets update 3; reloading it is fresh.
	p = apply(query(0, 1), Decision{Evict: []model.ObjectID{1}, Load: []model.ObjectID{1}})
	if p.Stale || !slices.Equal(p.Evict, []model.ObjectID{1}) || len(p.Load) != 1 {
		t.Errorf("evict-and-reload plan %+v", p)
	}
	if got := a.Residents(); !slices.Equal(got, []model.ObjectID{1}) || a.Len() != 1 || !a.Resident(1) || a.Resident(2) || a.Used() != 10 {
		t.Errorf("residents %v (Len %d), used %v", got, a.Len(), a.Used())
	}
}

// TestApplierExemptAllowance: a preload past capacity is the allowance
// (Replica's mirror); a birth's loads raise it, other events' do not.
func TestApplierExemptAllowance(t *testing.T) {
	a := NewApplier(5, func(model.ObjectID) (cost.Bytes, bool) { return 10, true })
	if err := a.Preload([]model.ObjectID{1, 2}); err != nil {
		t.Fatal(err)
	}
	birth := model.Event{Seq: 1, Kind: model.EventBirth}
	if _, v := a.Apply(&birth, Decision{Load: []model.ObjectID{3}}); len(v) != 0 {
		t.Errorf("birth load beyond capacity within the exempt allowance: %v", v)
	}
	update := model.Event{Seq: 2, Kind: model.EventUpdate, Update: &model.Update{ID: 1, Object: 1}}
	if _, v := a.Apply(&update, Decision{Load: []model.ObjectID{4}}); len(v) != 1 {
		t.Errorf("a non-birth load past the allowance: violations %v, want 1", v)
	}
}
