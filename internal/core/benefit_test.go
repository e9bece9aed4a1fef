package core

import (
	"slices"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

func newTestBenefit(t *testing.T, window int, capacity cost.Bytes) *Benefit {
	t.Helper()
	p := NewBenefit(BenefitConfig{Window: window})
	if err := p.Init(vcObjects(), capacity); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBenefitConfigValidation(t *testing.T) {
	p := NewBenefit(BenefitConfig{Window: 0})
	if err := p.Init(vcObjects(), cost.GB); err == nil {
		t.Error("zero window should fail")
	}
	p = NewBenefit(DefaultBenefitConfig())
	if err := p.Init(vcObjects(), cost.GB); err != nil {
		t.Fatal(err)
	}
	if err := p.Init(vcObjects(), cost.GB); err == nil {
		t.Error("double init should fail")
	}
	q := NewBenefit(DefaultBenefitConfig())
	if _, err := q.OnQuery(&model.Query{ID: 1, Objects: []model.ObjectID{1}, Cost: 1}); err == nil {
		t.Error("use before init should fail")
	}
}

func TestBenefitStartsEmptyAndShips(t *testing.T) {
	p := newTestBenefit(t, 4, 30*cost.GB)
	d, err := p.OnQuery(&model.Query{
		ID: 1, Objects: []model.ObjectID{1}, Cost: cost.GB,
		Tolerance: model.NoTolerance, Time: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.ShipQuery {
		t.Error("cold cache must ship")
	}
}

func TestBenefitLoadsHotObjectAtWindowBoundary(t *testing.T) {
	p := newTestBenefit(t, 4, 30*cost.GB)
	// Four expensive queries on object 3 (5 GB): benefit 4*20GB - 5GB
	// load cost > 0.
	for i := 0; i < 4; i++ {
		if _, err := p.OnQuery(&model.Query{
			ID: model.QueryID(i + 1), Objects: []model.ObjectID{3}, Cost: 20 * cost.GB,
			Tolerance: model.NoTolerance, Time: time.Duration(i+1) * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The 5th event starts a new window: replan must load object 3.
	d, err := p.OnQuery(&model.Query{
		ID: 5, Objects: []model.ObjectID{3}, Cost: 20 * cost.GB,
		Tolerance: model.NoTolerance, Time: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Load) != 1 || d.Load[0] != 3 {
		t.Fatalf("expected load of object 3 at boundary: %+v", d)
	}
	if d.ShipQuery {
		t.Error("query should be answered at cache after the load")
	}
	if p.Stats().Windows != 1 {
		t.Errorf("stats: %+v", p.Stats())
	}
}

func TestBenefitEagerUpdateShipping(t *testing.T) {
	p := newTestBenefit(t, 2, 30*cost.GB)
	// Get object 3 loaded: 2 hot queries then boundary.
	for i := 0; i < 2; i++ {
		if _, err := p.OnQuery(&model.Query{
			ID: model.QueryID(i + 1), Objects: []model.ObjectID{3}, Cost: 20 * cost.GB,
			Tolerance: model.NoTolerance, Time: time.Duration(i+1) * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := p.OnUpdate(&model.Update{ID: 1, Object: 3, Cost: cost.MB, Time: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Load) != 1 || d.Load[0] != 3 {
		t.Fatalf("boundary replan should load 3: %+v", d)
	}
	if len(d.ApplyUpdates) != 1 || d.ApplyUpdates[0] != 1 {
		t.Fatalf("update on cached object must ship eagerly: %+v", d)
	}
	// Updates on uncached objects are not shipped.
	d2, err := p.OnUpdate(&model.Update{ID: 2, Object: 1, Cost: cost.MB, Time: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.ApplyUpdates) != 0 {
		t.Errorf("update on uncached object should not ship: %+v", d2)
	}
}

func TestBenefitEvictsWhenBenefitTurnsNegative(t *testing.T) {
	p := newTestBenefit(t, 2, 30*cost.GB)
	// Window 1: object 3 hot.
	for i := 0; i < 2; i++ {
		if _, err := p.OnQuery(&model.Query{
			ID: model.QueryID(i + 1), Objects: []model.ObjectID{3}, Cost: 20 * cost.GB,
			Tolerance: model.NoTolerance, Time: time.Duration(i+1) * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Window 2 starts: 3 loaded. Now hammer it with huge updates for
	// several windows until its forecast goes negative.
	uid := model.UpdateID(0)
	evicted := false
	for w := 0; w < 6 && !evicted; w++ {
		for i := 0; i < 2; i++ {
			uid++
			d, err := p.OnUpdate(&model.Update{
				ID: uid, Object: 3, Cost: 30 * cost.GB,
				Time: time.Duration(10*int(uid)) * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range d.Evict {
				if id == 3 {
					evicted = true
				}
			}
		}
	}
	if !evicted {
		t.Error("object 3 should be evicted once update traffic dominates")
	}
}

func TestBenefitRespectsCapacity(t *testing.T) {
	// Capacity fits only object 3 (5 GB): even if all objects are hot,
	// only 3 can be cached.
	p := newTestBenefit(t, 3, 6*cost.GB)
	for i := 0; i < 3; i++ {
		obj := model.ObjectID(i + 1)
		if _, err := p.OnQuery(&model.Query{
			ID: model.QueryID(i + 1), Objects: []model.ObjectID{obj}, Cost: 50 * cost.GB,
			Tolerance: model.NoTolerance, Time: time.Duration(i+1) * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.OnQuery(&model.Query{
		ID: 4, Objects: []model.ObjectID{3}, Cost: cost.GB,
		Tolerance: model.NoTolerance, Time: 4 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	cached := p.CachedObjects()
	var used cost.Bytes
	for _, id := range cached {
		size, _ := p.idx.size(id)
		used += size
	}
	if used > 6*cost.GB {
		t.Errorf("capacity exceeded: %v cached (%v)", cached, used)
	}
}

func TestBenefitSplitsQueryCostBySize(t *testing.T) {
	p := newTestBenefit(t, 100, 40*cost.GB)
	// One query across objects 1 (10 GB) and 2 (20 GB): shares 1/3 and
	// 2/3.
	if _, err := p.OnQuery(&model.Query{
		ID: 1, Objects: []model.ObjectID{1, 2}, Cost: 30 * cost.GB,
		Tolerance: model.NoTolerance, Time: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := p.winBenefit[1], float64(10*cost.GB); got != want {
		t.Errorf("object 1 share = %v, want %v", got, want)
	}
	if got, want := p.winBenefit[2], float64(20*cost.GB); got != want {
		t.Errorf("object 2 share = %v, want %v", got, want)
	}
}

func TestBenefitWindowOneReplansEveryEvent(t *testing.T) {
	p := newTestBenefit(t, 1, 30*cost.GB)
	if _, err := p.OnQuery(&model.Query{
		ID: 1, Objects: []model.ObjectID{3}, Cost: 20 * cost.GB,
		Tolerance: model.NoTolerance, Time: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	d, err := p.OnQuery(&model.Query{
		ID: 2, Objects: []model.ObjectID{3}, Cost: 20 * cost.GB,
		Tolerance: model.NoTolerance, Time: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Load) != 1 || d.Load[0] != 3 {
		t.Errorf("window=1 should load at the second event: %+v", d)
	}
	if p.Stats().Windows != 1 {
		t.Errorf("stats: %+v", p.Stats())
	}
}

// TestBenefitForget: a forgotten object leaves the forecast and the
// cache, and a smaller capacity evicts the lowest forecasts first.
func TestBenefitForget(t *testing.T) {
	objs := []model.Object{{ID: 1, Size: cost.GB}, {ID: 2, Size: cost.GB}, {ID: 3, Size: cost.GB}}
	p := NewBenefit(BenefitConfig{Window: 1})
	if err := p.Init(objs, 3*cost.GB); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Warm([]model.ObjectID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	p.mu[1], p.mu[2], p.mu[3] = 3, 1, 2
	d, err := p.Forget([]model.ObjectID{1}, 3*cost.GB)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Evict, []model.ObjectID{1}) {
		t.Errorf("Forget(1) = %+v, want object 1 evicted", d)
	}
	if _, ok := p.mu[1]; ok || p.idx.objects.has(1) {
		t.Error("object 1 is still in the forecast or the universe")
	}
	d, err = p.Forget(nil, cost.GB)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Evict, []model.ObjectID{2}) || !slices.Equal(p.CachedObjects(), []model.ObjectID{3}) {
		t.Errorf("shrink to 1GB = %+v, cached %v; want the lower forecast (2) evicted", d, p.CachedObjects())
	}
}
