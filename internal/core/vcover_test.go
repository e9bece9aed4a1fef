package core

import (
	"slices"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

func vcObjects() []model.Object {
	return []model.Object{
		{ID: 1, Size: 10 * cost.GB},
		{ID: 2, Size: 20 * cost.GB},
		{ID: 3, Size: 5 * cost.GB},
	}
}

func newTestVCover(t *testing.T, capacity cost.Bytes) *VCover {
	t.Helper()
	p := NewVCover(DefaultVCoverConfig())
	if err := p.Init(vcObjects(), capacity); err != nil {
		t.Fatal(err)
	}
	return p
}

// warmLoad gets an object into VCover's cache deterministically: a query
// on just that object with cost >= its size always makes it a load
// candidate.
func warmLoad(t *testing.T, p *VCover, id model.ObjectID, qid model.QueryID, at time.Duration) {
	t.Helper()
	size, err := p.idx.size(id)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.OnQuery(&model.Query{
		ID: qid, Objects: []model.ObjectID{id}, Cost: size,
		Tolerance: model.NoTolerance, Time: at,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.ShipQuery {
		t.Fatal("warm query must be shipped (object was missing)")
	}
	if len(d.Load) != 1 || d.Load[0] != id {
		t.Fatalf("warm load of %d failed: %+v", id, d)
	}
}

func TestVCoverInitValidation(t *testing.T) {
	p := NewVCover(DefaultVCoverConfig())
	if err := p.Init(vcObjects(), 30*cost.GB); err != nil {
		t.Fatal(err)
	}
	if err := p.Init(vcObjects(), 30*cost.GB); err == nil {
		t.Error("double init should fail")
	}
	q := NewVCover(DefaultVCoverConfig())
	if err := q.Init(vcObjects(), -1); err == nil {
		t.Error("negative capacity should fail")
	}
	r := NewVCover(DefaultVCoverConfig())
	if _, err := r.OnQuery(&model.Query{ID: 1, Objects: []model.ObjectID{1}, Cost: 1}); err == nil {
		t.Error("use before init should fail")
	}
}

func TestVCoverUnknownObjectRejected(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	if _, err := p.OnQuery(&model.Query{ID: 1, Objects: []model.ObjectID{99}, Cost: 1}); err == nil {
		t.Error("query on unknown object should fail")
	}
	if _, err := p.OnUpdate(&model.Update{ID: 1, Object: 99, Cost: 1}); err == nil {
		t.Error("update on unknown object should fail")
	}
}

func TestVCoverMissShipsQuery(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	d, err := p.OnQuery(&model.Query{
		ID: 1, Objects: []model.ObjectID{1}, Cost: cost.MB,
		Tolerance: model.NoTolerance, Time: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.ShipQuery {
		t.Error("miss must ship the query")
	}
}

func TestVCoverDeterministicLoadWhenCostCoversSize(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	warmLoad(t, p, 1, 1, time.Second)
	if got := p.CachedObjects(); len(got) != 1 || got[0] != 1 {
		t.Errorf("cached = %v, want [1]", got)
	}
	if p.Stats().ObjectsLoaded != 1 {
		t.Errorf("stats: %+v", p.Stats())
	}
}

func TestVCoverHitAnswersAtCacheFree(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	warmLoad(t, p, 1, 1, time.Second)
	d, err := p.OnQuery(&model.Query{
		ID: 2, Objects: []model.ObjectID{1}, Cost: cost.GB,
		Tolerance: model.NoTolerance, Time: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsNoop() {
		t.Errorf("fresh hit must be free: %+v", d)
	}
	if p.Stats().QueriesAtCache != 1 {
		t.Errorf("stats: %+v", p.Stats())
	}
}

// checkOwed fails unless owed marks exactly the objects with a
// non-empty outstanding list, the keys of outstanding.
func checkOwed(t *testing.T, p *VCover) {
	t.Helper()
	for obj, lst := range p.outstanding {
		if len(lst) == 0 || !p.owed.has(obj) {
			t.Errorf("object %d: %d outstanding, owed %v", obj, len(lst), p.owed.has(obj))
		}
	}
	if p.owed.len() != len(p.outstanding) {
		t.Errorf("owed marks %d objects, %d have outstanding updates", p.owed.len(), len(p.outstanding))
	}
}

func TestVCoverShipsCheapUpdatesOverExpensiveQuery(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	warmLoad(t, p, 1, 1, time.Second)
	// A cheap update invalidates the object; it is never shipped on
	// arrival, only when a cover picks it.
	du, err := p.OnUpdate(&model.Update{ID: 1, Object: 1, Cost: cost.MB, Time: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !du.IsNoop() {
		t.Errorf("an arriving update must not ship: %+v", du)
	}
	if !p.owed.has(1) {
		t.Error("an update on a resident object does not mark it owed")
	}
	checkOwed(t, p)
	// An expensive zero-tolerance query: the cover must ship the update.
	d, err := p.OnQuery(&model.Query{
		ID: 2, Objects: []model.ObjectID{1}, Cost: cost.GB,
		Tolerance: model.NoTolerance, Time: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.ShipQuery {
		t.Error("query should be answered at cache")
	}
	if len(d.ApplyUpdates) != 1 || d.ApplyUpdates[0] != 1 {
		t.Errorf("expected update 1 shipped, got %+v", d)
	}
	if p.owed.has(1) {
		t.Error("object 1 is still owed after its last update shipped")
	}
	checkOwed(t, p)
	// The update is applied: a follow-up query is free.
	d2, err := p.OnQuery(&model.Query{
		ID: 3, Objects: []model.ObjectID{1}, Cost: cost.GB,
		Tolerance: model.NoTolerance, Time: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.IsNoop() {
		t.Errorf("update should have been applied: %+v", d2)
	}
}

func TestVCoverShipsCheapQueryOverExpensiveUpdate(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	warmLoad(t, p, 1, 1, time.Second)
	if _, err := p.OnUpdate(&model.Update{ID: 1, Object: 1, Cost: cost.GB, Time: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	d, err := p.OnQuery(&model.Query{
		ID: 2, Objects: []model.ObjectID{1}, Cost: cost.MB,
		Tolerance: model.NoTolerance, Time: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.ShipQuery || len(d.ApplyUpdates) != 0 {
		t.Errorf("cheap query should ship, not the 1GB update: %+v", d)
	}
}

// TestVCoverAccumulationFlipsToUpdates is the heart of the online
// behaviour: repeated cheap queries against the same outstanding update
// accumulate weight in the remainder graph until shipping the update
// becomes the minimum cover.
func TestVCoverAccumulationFlipsToUpdates(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	warmLoad(t, p, 1, 1, time.Second)
	if _, err := p.OnUpdate(&model.Update{ID: 1, Object: 1, Cost: 10 * cost.MB, Time: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// First query (6 MB) < update (10 MB): ship the query.
	d, err := p.OnQuery(&model.Query{
		ID: 2, Objects: []model.ObjectID{1}, Cost: 6 * cost.MB,
		Tolerance: model.NoTolerance, Time: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.ShipQuery || len(d.ApplyUpdates) != 0 {
		t.Fatalf("first query should ship: %+v", d)
	}
	// Second query (6 MB): accumulated 12 MB > 10 MB: the cover flips
	// and the update ships; this query is answered at the cache.
	d2, err := p.OnQuery(&model.Query{
		ID: 3, Objects: []model.ObjectID{1}, Cost: 6 * cost.MB,
		Tolerance: model.NoTolerance, Time: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d2.ShipQuery {
		t.Errorf("second query should be answered at cache: %+v", d2)
	}
	if len(d2.ApplyUpdates) != 1 || d2.ApplyUpdates[0] != 1 {
		t.Errorf("update should finally ship: %+v", d2)
	}
}

func TestVCoverToleranceSkipsFreshUpdates(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	warmLoad(t, p, 1, 1, time.Second)
	if _, err := p.OnUpdate(&model.Update{ID: 1, Object: 1, Cost: cost.GB, Time: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// The update arrived 1s before the query; tolerance 5s covers it.
	d, err := p.OnQuery(&model.Query{
		ID: 2, Objects: []model.ObjectID{1}, Cost: cost.MB,
		Tolerance: 5 * time.Second, Time: 11 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsNoop() {
		t.Errorf("tolerant query must be free: %+v", d)
	}
	// An infinitely tolerant query likewise.
	d2, err := p.OnQuery(&model.Query{
		ID: 3, Objects: []model.ObjectID{1}, Cost: cost.MB,
		Tolerance: model.AnyStaleness, Time: 12 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.IsNoop() {
		t.Errorf("AnyStaleness query must be free: %+v", d2)
	}
	// A zero-tolerance query must interact with the update.
	d3, err := p.OnQuery(&model.Query{
		ID: 4, Objects: []model.ObjectID{1}, Cost: cost.MB,
		Tolerance: model.NoTolerance, Time: 13 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d3.ShipQuery {
		t.Errorf("zero-tolerance query should ship (update is 1GB): %+v", d3)
	}
}

func TestVCoverUpdatesForUncachedObjectIgnored(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	if _, err := p.OnUpdate(&model.Update{ID: 1, Object: 2, Cost: cost.GB, Time: time.Second}); err != nil {
		t.Fatal(err)
	}
	if len(p.outstanding[2]) != 0 {
		t.Error("updates for uncached objects must not accumulate")
	}
}

func TestVCoverLoadClearsOutstanding(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	warmLoad(t, p, 1, 1, time.Second)
	if _, err := p.OnUpdate(&model.Update{ID: 1, Object: 1, Cost: cost.GB, Time: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// Evict 1 by loading 2 and 3 (capacity 30 GB: 10+20+5 > 30).
	warmLoad(t, p, 2, 2, 3*time.Second)
	// Whether 1 survived depends on GDS credits; force the point by
	// checking graph consistency instead: no vertices for evicted
	// objects' updates.
	for uid, obj := range p.updObject {
		if !p.idx.isCached(obj) {
			t.Errorf("graph retains update %d for evicted object %d", uid, obj)
		}
	}
	for obj := range p.outstanding {
		if len(p.outstanding[obj]) > 0 && !p.idx.isCached(obj) {
			t.Errorf("outstanding updates retained for evicted object %d", obj)
		}
	}
	checkOwed(t, p)
}

func TestVCoverMirrorMatchesGDS(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	warmLoad(t, p, 1, 1, time.Second)
	warmLoad(t, p, 3, 2, 2*time.Second)
	cached := p.CachedObjects()
	gdsKeys := p.loads.Keys()
	if len(cached) != len(gdsKeys) {
		t.Fatalf("mirror %v vs gds %v", cached, gdsKeys)
	}
	for i := range cached {
		if int64(cached[i]) != gdsKeys[i] {
			t.Fatalf("mirror %v vs gds %v", cached, gdsKeys)
		}
	}
}

func TestVCoverDeterministicAcrossRuns(t *testing.T) {
	run := func() []model.ObjectID {
		p := NewVCover(VCoverConfig{Seed: 7, GDSF: true})
		if err := p.Init(vcObjects(), 30*cost.GB); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			id := model.ObjectID(i%3 + 1)
			_, err := p.OnQuery(&model.Query{
				ID: model.QueryID(i + 1), Objects: []model.ObjectID{id},
				Cost: cost.Bytes(i%7+1) * cost.GB, Tolerance: model.NoTolerance,
				Time: time.Duration(i) * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return p.CachedObjects()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

// TestVCoverRentOrBuy: an object is loaded once missed queries have
// paid its load cost l, on exactly the miss that completes l and never
// before, however the cost is split across the misses.
func TestVCoverRentOrBuy(t *testing.T) {
	const l = 10 * cost.GB // object 1
	for _, split := range [][]cost.Bytes{
		{l},
		{5 * cost.GB, 5 * cost.GB},
		{9 * cost.GB, cost.GB},
		{cost.GB, 2 * cost.GB, 3 * cost.GB, 4 * cost.GB},
		{cost.GB, cost.GB, cost.GB, cost.GB, cost.GB, cost.GB, cost.GB, cost.GB, cost.GB, cost.GB},
		{l - 1, 1},
	} {
		p := newTestVCover(t, 30*cost.GB)
		for k, c := range split {
			d, err := p.OnQuery(&model.Query{
				ID: model.QueryID(k + 1), Objects: []model.ObjectID{1}, Cost: c,
				Tolerance: model.NoTolerance, Time: time.Duration(k) * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !d.ShipQuery {
				t.Fatalf("split %v: miss %d was not shipped", split, k+1)
			}
			last := k == len(split)-1
			if loaded := slices.Equal(d.Load, []model.ObjectID{1}); loaded != last {
				t.Fatalf("split %v: miss %d of %d loaded %v", split, k+1, len(split), d.Load)
			}
			if want := int64(0); !last {
				for _, paid := range split[:k+1] {
					want += int64(paid)
				}
				if got := p.credit.get(1); got != want {
					t.Fatalf("split %v: credit %d after miss %d, want %d", split, got, k+1, want)
				}
			} else if got := p.credit.get(1); got != 0 {
				t.Fatalf("split %v: credit %d after the load, want 0", split, got)
			}
		}
	}
}

// TestVCoverCreditPaysInIDOrder: a missed query pays its missing objects
// in ascending ID order, whatever order it names them in, each taking
// only what it still lacks; what is left over credits the next object.
func TestVCoverCreditPaysInIDOrder(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	// Object 1 lacks 10GB, so 12GB loads it and leaves 2GB for object 3.
	d, err := p.OnQuery(&model.Query{ID: 1, Objects: []model.ObjectID{3, 1}, Cost: 12 * cost.GB, Time: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Load, []model.ObjectID{1}) || p.credit.get(3) != int64(2*cost.GB) {
		t.Fatalf("decision %+v, credit of 3 = %d; want 1 loaded and 2GB on 3", d, p.credit.get(3))
	}
	// Object 3 lacks 3GB of its 5GB: a 3GB miss on it buys it.
	if d, err = p.OnQuery(&model.Query{ID: 2, Objects: []model.ObjectID{3}, Cost: 3 * cost.GB, Time: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Load, []model.ObjectID{3}) {
		t.Fatalf("decision %+v, want 3 loaded", d)
	}
}

// TestVCoverForgetClearsCredit: a forgotten object's credit leaves with
// it, so it rejoins owing its whole load cost.
func TestVCoverForgetClearsCredit(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	if _, err := p.OnQuery(&model.Query{ID: 1, Objects: []model.ObjectID{3}, Cost: 4 * cost.GB}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Forget([]model.ObjectID{3}, 30*cost.GB); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddObjects([]model.Object{{ID: 3, Size: 5 * cost.GB}}); err != nil {
		t.Fatal(err)
	}
	d, err := p.OnQuery(&model.Query{ID: 2, Objects: []model.ObjectID{3}, Cost: 4 * cost.GB})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Load) != 0 || p.credit.get(3) != int64(4*cost.GB) {
		t.Errorf("decision %+v, credit %d; a rejoined object must start from no credit", d, p.credit.get(3))
	}
}

func TestVCoverMultiObjectQueryNeedsAll(t *testing.T) {
	p := newTestVCover(t, 35*cost.GB)
	warmLoad(t, p, 1, 1, time.Second)
	// Query touching cached 1 and uncached 3 must ship.
	d, err := p.OnQuery(&model.Query{
		ID: 2, Objects: []model.ObjectID{1, 3}, Cost: cost.MB,
		Tolerance: model.NoTolerance, Time: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.ShipQuery {
		t.Error("partially-cached query must ship")
	}
}

func TestVCoverCoverSharedUpdateAcrossQueries(t *testing.T) {
	// Two queries on different objects share no updates; a query on two
	// objects interacts with updates on both.
	p := newTestVCover(t, 35*cost.GB)
	warmLoad(t, p, 1, 1, time.Second)
	warmLoad(t, p, 3, 2, 2*time.Second)
	if _, err := p.OnUpdate(&model.Update{ID: 1, Object: 1, Cost: 2 * cost.MB, Time: 3 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OnUpdate(&model.Update{ID: 2, Object: 3, Cost: 3 * cost.MB, Time: 4 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// Query on both objects, cost 100 MB >> 5 MB of updates: cover ships
	// both updates.
	d, err := p.OnQuery(&model.Query{
		ID: 3, Objects: []model.ObjectID{1, 3}, Cost: 100 * cost.MB,
		Tolerance: model.NoTolerance, Time: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.ShipQuery || len(d.ApplyUpdates) != 2 {
		t.Errorf("both updates should ship: %+v", d)
	}
}

func TestVCoverStatsProgress(t *testing.T) {
	p := newTestVCover(t, 30*cost.GB)
	warmLoad(t, p, 1, 1, time.Second)
	st := p.Stats()
	if st.QueriesShipped != 1 || st.ObjectsLoaded != 1 {
		t.Errorf("stats after warm: %+v", st)
	}
	if _, err := p.OnUpdate(&model.Update{ID: 1, Object: 1, Cost: cost.KB, Time: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OnQuery(&model.Query{
		ID: 2, Objects: []model.ObjectID{1}, Cost: cost.GB,
		Tolerance: model.NoTolerance, Time: 3 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if st.UpdatesShipped != 1 || st.CoverComputations != 1 || st.QueriesAtCache != 1 {
		t.Errorf("stats after cover: %+v", st)
	}
}

// TestVCoverForget: a forgotten resident is evicted with its outstanding
// updates and interaction-graph vertices and leaves the universe, an
// unknown ID is ignored, a smaller capacity evicts in GDS order, and a
// forgotten object can rejoin cold.
func TestVCoverForget(t *testing.T) {
	p := newTestVCover(t, 35*cost.GB)
	warmLoad(t, p, 1, 1, time.Second)
	warmLoad(t, p, 2, 2, 2*time.Second)
	warmLoad(t, p, 3, 3, 3*time.Second)
	if _, err := p.OnUpdate(&model.Update{ID: 1, Object: 1, Cost: cost.MB, Time: 4 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// The query puts the update's vertex in the graph and ships the
	// cheap query instead.
	if d, err := p.OnQuery(&model.Query{ID: 4, Objects: []model.ObjectID{1}, Cost: cost.KB, Time: 5 * time.Second}); err != nil || !d.ShipQuery {
		t.Fatalf("query over an outstanding update = %+v, %v; want shipped", d, err)
	}
	d, err := p.Forget([]model.ObjectID{1, 99}, 35*cost.GB)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Evict, []model.ObjectID{1}) || len(d.Load) != 0 || d.ShipQuery {
		t.Errorf("Forget(1, 99) = %+v, want only object 1 evicted", d)
	}
	if p.bip.HasRight(1) || len(p.outstanding[1]) != 0 || p.owed.has(1) || p.loads.Contains(1) {
		t.Error("the forgotten resident left decision state behind")
	}
	if _, err := p.OnQuery(&model.Query{ID: 5, Objects: []model.ObjectID{1}, Cost: cost.KB}); err == nil {
		t.Error("a query on a forgotten object was accepted")
	}

	// Objects 2 and 3 hold 25GB; at 20GB one must go, in GDS order.
	d, err = p.Forget(nil, 20*cost.GB)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Evict) != 1 || p.idx.used > 20*cost.GB || p.loads.Used() != int64(p.idx.used) {
		t.Errorf("shrink to 20GB = %+v, leaving %v resident", d, p.idx.used)
	}
	if _, err := p.Forget(nil, -1); err == nil {
		t.Error("a negative capacity was accepted")
	}

	if _, err := p.AddObjects([]model.Object{{ID: 1, Size: 10 * cost.GB}}); err != nil {
		t.Fatalf("a forgotten object could not rejoin: %v", err)
	}
	if p.idx.isCached(1) {
		t.Error("a rejoined object is resident")
	}
}
