package core

import (
	"slices"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

func TestNoCacheAlwaysShips(t *testing.T) {
	p := NewNoCache()
	if err := p.Init(vcObjects(), cost.GB); err != nil {
		t.Fatal(err)
	}
	if err := p.Init(vcObjects(), cost.GB); err == nil {
		t.Error("double init should fail")
	}
	d, err := p.OnQuery(&model.Query{ID: 1, Objects: []model.ObjectID{1}, Cost: cost.GB})
	if err != nil {
		t.Fatal(err)
	}
	if !d.ShipQuery {
		t.Error("NoCache must ship every query")
	}
	du, err := p.OnUpdate(&model.Update{ID: 1, Object: 1, Cost: cost.GB})
	if err != nil {
		t.Fatal(err)
	}
	if !du.IsNoop() {
		t.Error("NoCache must ignore updates")
	}
	if p.Name() != "NoCache" {
		t.Error("name wrong")
	}
}

func TestReplicaPreloadsAllUncharged(t *testing.T) {
	p := NewReplica()
	if err := p.Init(vcObjects(), cost.GB); err != nil {
		t.Fatal(err)
	}
	objs, charge := p.Preload()
	if charge {
		t.Error("Replica preload must be free (paper: load costs ignored)")
	}
	if len(objs) != 3 || objs[0] != 1 || objs[2] != 3 {
		t.Errorf("Preload = %v, want all objects sorted", objs)
	}
	d, err := p.OnQuery(&model.Query{ID: 1, Objects: []model.ObjectID{1, 2, 3}, Cost: cost.GB})
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsNoop() {
		t.Error("Replica answers everything at cache")
	}
	du, err := p.OnUpdate(&model.Update{ID: 1, Object: 2, Cost: cost.GB})
	if err != nil {
		t.Fatal(err)
	}
	if len(du.ApplyUpdates) != 1 || du.ApplyUpdates[0] != 1 {
		t.Errorf("Replica must push every update: %+v", du)
	}
}

func soEvents() []model.Event {
	// Object 1 (10 GB): heavily queried, no updates -> cache it.
	// Object 2 (20 GB): heavily updated, rarely queried -> skip it.
	// Object 3 (5 GB): lightly queried, not worth its load cost -> skip.
	var events []model.Event
	seq := int64(0)
	add := func(e model.Event) { e.Seq = seq; seq++; events = append(events, e) }
	for i := 0; i < 10; i++ {
		add(model.Event{Kind: model.EventQuery, Query: &model.Query{
			ID: model.QueryID(i + 1), Objects: []model.ObjectID{1}, Cost: 5 * cost.GB,
			Tolerance: model.NoTolerance, Time: time.Duration(seq) * time.Second}})
		add(model.Event{Kind: model.EventUpdate, Update: &model.Update{
			ID: model.UpdateID(i + 1), Object: 2, Cost: 3 * cost.GB,
			Time: time.Duration(seq) * time.Second}})
	}
	add(model.Event{Kind: model.EventQuery, Query: &model.Query{
		ID: 100, Objects: []model.ObjectID{2}, Cost: cost.GB,
		Tolerance: model.NoTolerance, Time: time.Duration(seq) * time.Second}})
	add(model.Event{Kind: model.EventQuery, Query: &model.Query{
		ID: 101, Objects: []model.ObjectID{3}, Cost: cost.GB,
		Tolerance: model.NoTolerance, Time: time.Duration(seq) * time.Second}})
	return events
}

func TestSOptimalChoosesQueryHotObject(t *testing.T) {
	p := NewSOptimal(soEvents())
	if err := p.Init(vcObjects(), 15*cost.GB); err != nil {
		t.Fatal(err)
	}
	if !p.Chosen(1) {
		t.Error("object 1 (50 GB saved vs 10 GB load) must be chosen")
	}
	if p.Chosen(2) {
		t.Error("object 2 (30 GB updates vs 1 GB saved) must not be chosen")
	}
	if p.Chosen(3) {
		t.Error("object 3 (1 GB saved vs 5 GB load) must not be chosen")
	}
	objs, charge := p.Preload()
	if !charge {
		t.Error("SOptimal loads are charged")
	}
	if len(objs) != 1 || objs[0] != 1 {
		t.Errorf("Preload = %v, want [1]", objs)
	}
}

func TestSOptimalQueryRouting(t *testing.T) {
	p := NewSOptimal(soEvents())
	if err := p.Init(vcObjects(), 15*cost.GB); err != nil {
		t.Fatal(err)
	}
	d, err := p.OnQuery(&model.Query{ID: 1, Objects: []model.ObjectID{1}, Cost: cost.GB})
	if err != nil {
		t.Fatal(err)
	}
	if d.ShipQuery {
		t.Error("query inside the chosen set must be free")
	}
	d2, err := p.OnQuery(&model.Query{ID: 2, Objects: []model.ObjectID{1, 2}, Cost: cost.GB})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.ShipQuery {
		t.Error("query touching an unchosen object must ship")
	}
}

func TestSOptimalUpdateRouting(t *testing.T) {
	p := NewSOptimal(soEvents())
	if err := p.Init(vcObjects(), 15*cost.GB); err != nil {
		t.Fatal(err)
	}
	d, err := p.OnUpdate(&model.Update{ID: 999, Object: 1, Cost: cost.GB})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.ApplyUpdates) != 1 {
		t.Error("updates for chosen objects must ship")
	}
	d2, err := p.OnUpdate(&model.Update{ID: 1000, Object: 2, Cost: cost.GB})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.ApplyUpdates) != 0 {
		t.Error("updates for unchosen objects must not ship")
	}
}

func TestSOptimalRespectsCapacity(t *testing.T) {
	// With capacity below object 1's size, nothing can be cached even
	// though object 1 is hugely beneficial.
	p := NewSOptimal(soEvents())
	if err := p.Init(vcObjects(), 5*cost.GB); err != nil {
		t.Fatal(err)
	}
	if p.Chosen(1) {
		t.Error("object 1 (10 GB) cannot fit a 5 GB cache")
	}
}

func TestObjectIndexBookkeeping(t *testing.T) {
	idx, err := newObjectIndex(vcObjects(), 30*cost.GB)
	if err != nil {
		t.Fatal(err)
	}
	if idx.isCached(1) {
		t.Error("fresh index must be empty")
	}
	if err := idx.markCached(1); err != nil {
		t.Fatal(err)
	}
	if err := idx.markCached(1); err == nil {
		t.Error("double cache should fail")
	}
	if idx.used != 10*cost.GB {
		t.Errorf("used = %v", idx.used)
	}
	if !idx.allCached([]model.ObjectID{1}) || idx.allCached([]model.ObjectID{1, 2}) {
		t.Error("allCached wrong")
	}
	if err := idx.markEvicted(1); err != nil {
		t.Fatal(err)
	}
	if err := idx.markEvicted(1); err == nil {
		t.Error("double evict should fail")
	}
	if idx.used != 0 {
		t.Errorf("used = %v after evict", idx.used)
	}
	if _, err := idx.size(42); err == nil {
		t.Error("unknown object should fail")
	}
}

func TestObjectIndexValidation(t *testing.T) {
	if _, err := newObjectIndex(vcObjects(), -1); err == nil {
		t.Error("negative capacity should fail")
	}
	dup := []model.Object{{ID: 1, Size: 1}, {ID: 1, Size: 2}}
	if _, err := newObjectIndex(dup, 10); err == nil {
		t.Error("duplicate IDs should fail")
	}
	neg := []model.Object{{ID: 1, Size: -1}}
	if _, err := newObjectIndex(neg, 10); err == nil {
		t.Error("negative size should fail")
	}
}

func TestUpdateRequiredSemantics(t *testing.T) {
	q := &model.Query{Time: 100 * time.Second, Tolerance: 10 * time.Second}
	old := &model.Update{Time: 80 * time.Second}
	fresh := &model.Update{Time: 95 * time.Second}
	if !model.UpdateRequired(old, q) {
		t.Error("update older than the tolerance window must be required")
	}
	if model.UpdateRequired(fresh, q) {
		t.Error("update within the tolerance window must be skippable")
	}
	anyQ := &model.Query{Time: 100 * time.Second, Tolerance: model.AnyStaleness}
	if model.UpdateRequired(old, anyQ) {
		t.Error("AnyStaleness never requires updates")
	}
	zeroQ := &model.Query{Time: 100 * time.Second, Tolerance: model.NoTolerance}
	if !model.UpdateRequired(fresh, zeroQ) {
		t.Error("zero tolerance requires every prior update")
	}
}

// TestReplicaForget: a replica holds everything it knows, so every
// forgotten object is evicted, whatever the capacity.
func TestReplicaForget(t *testing.T) {
	p := NewReplica()
	objs := []model.Object{{ID: 1, Size: cost.GB}, {ID: 2, Size: cost.GB}}
	if err := p.Init(objs, cost.MB); err != nil {
		t.Fatal(err)
	}
	d, err := p.Forget([]model.ObjectID{2, 7}, cost.MB)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Evict, []model.ObjectID{2}) {
		t.Errorf("Forget(2, 7) = %+v, want object 2 evicted", d)
	}
	if objs, _ := p.Preload(); !slices.Equal(objs, []model.ObjectID{1}) {
		t.Errorf("after Forget the replica holds %v, want [1]", objs)
	}
}
