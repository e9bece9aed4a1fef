package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// newEvictVCover returns a VCover over objects of the given sizes, IDs
// 1, 2, … in order.
func newEvictVCover(t *testing.T, capacity cost.Bytes, sizes ...cost.Bytes) *VCover {
	t.Helper()
	objs := make([]model.Object, len(sizes))
	for i, s := range sizes {
		objs[i] = model.Object{ID: model.ObjectID(i + 1), Size: s}
	}
	p := NewVCover(DefaultVCoverConfig())
	if err := p.Init(objs, capacity); err != nil {
		t.Fatal(err)
	}
	return p
}

// mustAdmit runs one batch and checks its load and evict lists.
func mustAdmit(t *testing.T, p *VCover, cands []model.ObjectID, wantLoad, wantEvict []model.ObjectID) {
	t.Helper()
	load, evict, err := p.admitBatch(cands)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(load, wantLoad) || !slices.Equal(evict, wantEvict) {
		t.Fatalf("admitBatch(%v) = load %v, evict %v; want %v, %v", cands, load, evict, wantLoad, wantEvict)
	}
}

func TestNewNegativeCapacity(t *testing.T) {
	p := NewVCover(DefaultVCoverConfig())
	if err := p.Init([]model.Object{{ID: 1, Size: 10}}, -1); err == nil {
		t.Error("Init with a negative capacity should fail")
	}
}

func TestAdmitAndContains(t *testing.T) {
	p := newEvictVCover(t, 100, 40)
	mustAdmit(t, p, []model.ObjectID{1}, []model.ObjectID{1}, nil)
	if !p.idx.isCached(1) || p.idx.used != 40 || len(p.CachedObjects()) != 1 || len(p.order) != 1 {
		t.Errorf("after admitting 1: used %d, residents %v, heap %v", p.idx.used, p.CachedObjects(), p.order)
	}
	if p.prio.get(1) != 1 || p.floor != 0 {
		t.Errorf("H = %d, L = %d; want 1 and 0", p.prio.get(1), p.floor)
	}
}

func TestAdmitNegativeSizeRejected(t *testing.T) {
	p := NewVCover(DefaultVCoverConfig())
	if err := p.Init([]model.Object{{ID: 1, Size: -5}}, 100); err == nil {
		t.Error("Init with a negative object size should fail")
	}
	q := newEvictVCover(t, 100, 10)
	if _, err := q.AddObjects([]model.Object{{ID: 2, Size: -5}}); err == nil {
		t.Error("a newborn with a negative size should be rejected")
	}
	mustAdmit(t, q, []model.ObjectID{1}, []model.ObjectID{1}, nil)
	if q.idx.used != 10 {
		t.Errorf("used %d, want 10", q.idx.used)
	}
}

func TestAdmitExistingRefreshes(t *testing.T) {
	p := newEvictVCover(t, 100, 30, 70, 70)
	mustAdmit(t, p, []model.ObjectID{1}, []model.ObjectID{1}, nil)
	mustAdmit(t, p, []model.ObjectID{2}, []model.ObjectID{2}, nil)
	mustAdmit(t, p, []model.ObjectID{1}, nil, nil) // a hit: H = 0 + 2
	h0 := p.prio.get(1)
	// 2 goes at H = 1, raising L to 1.
	mustAdmit(t, p, []model.ObjectID{3}, []model.ObjectID{3}, []model.ObjectID{2})
	mustAdmit(t, p, []model.ObjectID{1}, nil, nil)
	if h1 := p.prio.get(1); h1 != 4 || h1 < h0 {
		t.Errorf("re-offered H = %d after %d; want L + 3 hits = 4", h1, h0)
	}
	if p.idx.used != 100 || len(p.order) != 2 {
		t.Errorf("used %d, heap %v; want 100 and two entries (no double count)", p.idx.used, p.order)
	}
}

func TestRemove(t *testing.T) {
	p := newEvictVCover(t, 100, 30)
	mustAdmit(t, p, []model.ObjectID{1}, []model.ObjectID{1}, nil)
	d, err := p.Forget([]model.ObjectID{1}, 100)
	if err != nil || !slices.Equal(d.Evict, []model.ObjectID{1}) {
		t.Fatalf("Forget(1) = %+v, %v; want 1 evicted", d, err)
	}
	if p.idx.isCached(1) || p.idx.used != 0 || len(p.order) != 0 || p.prio.get(1) != 0 {
		t.Error("Forget left the resident behind")
	}
	// Absent: a no-op.
	if d, err := p.Forget([]model.ObjectID{99}, 100); err != nil || len(d.Evict) != 0 {
		t.Errorf("Forget(99) = %+v, %v; want nothing evicted", d, err)
	}
}

func TestKeysSorted(t *testing.T) {
	p := newEvictVCover(t, 100, 10, 10, 10, 10, 10)
	for _, id := range []model.ObjectID{5, 1, 3} {
		mustAdmit(t, p, []model.ObjectID{id}, []model.ObjectID{id}, nil)
	}
	if got := p.CachedObjects(); !slices.Equal(got, []model.ObjectID{1, 3, 5}) {
		t.Errorf("CachedObjects = %v, want [1 3 5]", got)
	}
}

func TestResizeNegativeCapacity(t *testing.T) {
	p := newEvictVCover(t, 100, 30)
	mustAdmit(t, p, []model.ObjectID{1}, []model.ObjectID{1}, nil)
	if _, err := p.Forget(nil, -1); err == nil {
		t.Error("a negative capacity should fail")
	}
	if p.idx.capacity != 100 || !p.idx.isCached(1) {
		t.Errorf("a refused resize changed the cache: capacity %d, residents %v", p.idx.capacity, p.CachedObjects())
	}
}

func TestEvictionMakesRoom(t *testing.T) {
	p := newEvictVCover(t, 100, 60, 40, 50)
	mustAdmit(t, p, []model.ObjectID{1, 2}, []model.ObjectID{1, 2}, nil)
	// 1 and 2 tie at H = 1; the smaller ID goes, and it makes room.
	mustAdmit(t, p, []model.ObjectID{3}, []model.ObjectID{3}, []model.ObjectID{1})
	if p.idx.used != 90 || p.floor != 1 {
		t.Errorf("used %d, L %d; want 90 and 1", p.idx.used, p.floor)
	}
}

func TestAdmitOversizedRejected(t *testing.T) {
	p := newEvictVCover(t, 100, 50, 101)
	mustAdmit(t, p, []model.ObjectID{1}, []model.ObjectID{1}, nil)
	mustAdmit(t, p, []model.ObjectID{2}, nil, nil)
	if !p.idx.isCached(1) || p.floor != 0 {
		t.Error("an oversized candidate disturbed the residents")
	}
	// Through the load manager: the query pays 2's load cost, and the
	// candidate is still declined.
	d, err := p.OnQuery(&model.Query{ID: 1, Objects: []model.ObjectID{2}, Cost: 101, Tolerance: model.NoTolerance})
	if err != nil || !d.ShipQuery || len(d.Load) != 0 || len(d.Evict) != 0 {
		t.Errorf("query on the oversized object = %+v, %v; want shipped, nothing loaded", d, err)
	}
}

func TestRecencyEviction(t *testing.T) {
	// Every resident has the same hits, so H = L + 1 and the eviction
	// is recency, but only once L has risen past the first loads' H:
	// until then the tie goes to the smaller ID.
	p := newEvictVCover(t, 100, 50, 50, 50, 50)
	mustAdmit(t, p, []model.ObjectID{4}, []model.ObjectID{4}, nil)
	mustAdmit(t, p, []model.ObjectID{3}, []model.ObjectID{3}, nil)
	mustAdmit(t, p, []model.ObjectID{2}, []model.ObjectID{2}, []model.ObjectID{3}) // tie at 1
	// 2 was loaded at L = 1, so its H is 2: the older 4 goes.
	mustAdmit(t, p, []model.ObjectID{1}, []model.ObjectID{1}, []model.ObjectID{4})
}

func TestGDSFFrequencyProtects(t *testing.T) {
	p := newEvictVCover(t, 100, 50, 50, 50)
	mustAdmit(t, p, []model.ObjectID{1, 2}, []model.ObjectID{1, 2}, nil)
	p.touch(1)
	p.touch(1)
	if p.prio.get(1) != 3 || p.prio.get(2) != 1 {
		t.Fatalf("H = %d, %d; want 3 and 1", p.prio.get(1), p.prio.get(2))
	}
	mustAdmit(t, p, []model.ObjectID{3}, []model.ObjectID{3}, []model.ObjectID{2})
}

func TestInflationAges(t *testing.T) {
	// L rises to each victim's H, so hits buy a resident a bounded
	// lease: 1's three hits keep it through three evictions, not four.
	p := newEvictVCover(t, 100, 50, 50, 50, 50, 50, 50)
	mustAdmit(t, p, []model.ObjectID{1, 2}, []model.ObjectID{1, 2}, nil)
	for range 3 {
		p.touch(1)
	}
	for id := model.ObjectID(3); id <= 5; id++ {
		mustAdmit(t, p, []model.ObjectID{id}, []model.ObjectID{id}, []model.ObjectID{id - 1})
	}
	// 1 and 5 tie at H = 4 = L + 1.
	mustAdmit(t, p, []model.ObjectID{6}, []model.ObjectID{6}, []model.ObjectID{1})
	if p.floor != 4 {
		t.Errorf("L = %d, want 4", p.floor)
	}
}

func TestAdmitBatchLazyElision(t *testing.T) {
	// 1 is admitted, then displaced by 2 within the same batch: it is
	// never loaded, and never evicted.
	p := newEvictVCover(t, 100, 90, 90)
	mustAdmit(t, p, []model.ObjectID{1, 2}, []model.ObjectID{2}, nil)
	if p.floor != 1 {
		t.Errorf("L = %d; want 1, the elided candidate's H", p.floor)
	}
	// Through the load manager: one query pays both load costs.
	q := newEvictVCover(t, 100, 90, 90)
	d, err := q.OnQuery(&model.Query{ID: 1, Objects: []model.ObjectID{2, 1}, Cost: 180, Tolerance: model.NoTolerance})
	if err != nil || !slices.Equal(d.Load, []model.ObjectID{2}) || len(d.Evict) != 0 {
		t.Errorf("decision = %+v, %v; want only 2 loaded", d, err)
	}
	if st := q.Stats(); st.ObjectsLoaded != 1 || st.ObjectsEvicted != 0 {
		t.Errorf("stats %+v; want 1 load, no eviction", st)
	}
}

func TestAdmitBatchEvictsOldOnly(t *testing.T) {
	p := newEvictVCover(t, 100, 80, 80)
	mustAdmit(t, p, []model.ObjectID{1}, []model.ObjectID{1}, nil)
	mustAdmit(t, p, []model.ObjectID{2}, []model.ObjectID{2}, []model.ObjectID{1})
}

func TestAdmitBatchPreexistingReofferNotElided(t *testing.T) {
	// A resident that a batch re-offers counts a hit; displaced later in
	// the batch, it is evicted, since it occupies space.
	p := newEvictVCover(t, 100, 60, 90)
	mustAdmit(t, p, []model.ObjectID{1}, []model.ObjectID{1}, nil)
	mustAdmit(t, p, []model.ObjectID{1, 2}, []model.ObjectID{2}, []model.ObjectID{1})
	if p.floor != 2 {
		t.Errorf("L = %d, want 2: the re-offer counted a hit", p.floor)
	}
}

func TestAdmitBatchMatchesSequentialState(t *testing.T) {
	// Batching only changes what is loaded, never the bookkeeping: one
	// batch leaves the same residents, L and priorities as the same
	// candidates admitted one batch each.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		sizes := make([]cost.Bytes, 16)
		for i := range sizes {
			sizes[i] = cost.Bytes(rng.Intn(150) + 1)
		}
		a, b := newEvictVCover(t, 300, sizes...), newEvictVCover(t, 300, sizes...)
		warm := []model.ObjectID{1, 2, 3, 4, 5}
		mustBatch := func(p *VCover, ids []model.ObjectID) {
			if _, _, err := p.admitBatch(ids); err != nil {
				t.Fatal(err)
			}
		}
		mustBatch(a, warm)
		mustBatch(b, warm)
		batch := []model.ObjectID{10, 11, 12, 13, 14, 15}
		mustBatch(a, batch)
		for _, id := range batch {
			mustBatch(b, []model.ObjectID{id})
		}
		if ra, rb := a.CachedObjects(), b.CachedObjects(); !slices.Equal(ra, rb) || a.floor != b.floor {
			t.Fatalf("trial %d: residents %v, L %d; sequentially %v, %d", trial, ra, a.floor, rb, b.floor)
		}
		for _, id := range a.CachedObjects() {
			if a.prio.get(id) != b.prio.get(id) {
				t.Fatalf("trial %d: H(%d) = %d; sequentially %d", trial, id, a.prio.get(id), b.prio.get(id))
			}
		}
	}
}

// TestCapacityInvariantProperty drives VCover through random queries,
// updates, births, warm arrivals and forgets: the residents' sizes
// always sum to the mirror's used capacity, which never exceeds the
// capacity, and the eviction heap holds every resident once.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var objs []model.Object
		for id := 1; id <= 30; id++ {
			objs = append(objs, model.Object{ID: model.ObjectID(id), Size: cost.Bytes(rng.Intn(200))})
		}
		capacity := cost.Bytes(rng.Intn(500) + 1)
		p := NewVCover(DefaultVCoverConfig())
		if err := p.Init(objs, capacity); err != nil {
			t.Error(err)
			return false
		}
		next := model.ObjectID(31)
		for i := 0; i < 300; i++ {
			draw := func(n int) []model.ObjectID {
				ids := make([]model.ObjectID, n)
				for j := range ids {
					ids[j] = model.ObjectID(rng.Intn(int(next-1)) + 1)
				}
				return ids
			}
			var err error
			switch rng.Intn(8) {
			case 0:
				_, err = p.OnUpdate(&model.Update{ID: model.UpdateID(i), Object: draw(1)[0], Cost: cost.Bytes(rng.Intn(50)), Time: time.Duration(i)})
			case 1:
				_, err = p.Warm(draw(rng.Intn(4)))
			case 2:
				ids := slices.Compact(slices.Sorted(slices.Values(draw(rng.Intn(3)))))
				capacity = cost.Bytes(rng.Intn(500))
				if _, err = p.Forget(ids, capacity); err == nil {
					rejoin := make([]model.Object, len(ids))
					for j, id := range ids {
						rejoin[j] = model.Object{ID: id, Size: cost.Bytes(rng.Intn(200))}
					}
					_, err = p.AddObjects(rejoin)
				}
			case 3:
				_, err = p.AddObjects([]model.Object{{ID: next, Size: cost.Bytes(rng.Intn(200))}})
				next++
			default:
				ids := slices.Compact(slices.Sorted(slices.Values(draw(rng.Intn(5) + 1))))
				_, err = p.OnQuery(&model.Query{ID: model.QueryID(i), Objects: ids, Cost: cost.Bytes(rng.Intn(400)), Tolerance: model.NoTolerance, Time: time.Duration(i)})
			}
			if err != nil {
				t.Errorf("seed %d step %d: %v", seed, i, err)
				return false
			}
			var sum cost.Bytes
			residents := p.CachedObjects()
			for _, id := range residents {
				size, _ := p.idx.size(id)
				sum += size
			}
			if sum != p.idx.used || p.idx.used > capacity || p.idx.capacity != capacity || len(p.order) != len(residents) {
				t.Errorf("seed %d step %d: residents sum to %d, used %d, capacity %d (want %d), heap %d of %d residents",
					seed, i, sum, p.idx.used, p.idx.capacity, capacity, len(p.order), len(residents))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// scanGDS is the oracle for TestQuickHeapMatchesScan: Greedy-Dual-Size
// with hit counts (GDSF), in floating point, each entry's cost equal to
// its size, and the victim found by scanning every resident, as VCover's
// eviction was computed before it kept an integer priority and a heap.
type scanGDS struct {
	capacity, used cost.Bytes
	inflate        float64
	sizes          map[model.ObjectID]cost.Bytes
	entries        map[model.ObjectID]*scanGDSEntry
}

type scanGDSEntry struct {
	size, cost int64
	h          float64
	freq       int64
}

func (c *scanGDS) credit(e *scanGDSEntry) float64 {
	if e.size <= 0 {
		return c.inflate + float64(e.cost)
	}
	return c.inflate + float64(e.freq)*float64(e.cost)/float64(e.size)
}

func (c *scanGDS) touch(id model.ObjectID) {
	if e, ok := c.entries[id]; ok {
		e.freq++
		e.h = c.credit(e)
	}
}

func (c *scanGDS) remove(id model.ObjectID) {
	if e, ok := c.entries[id]; ok {
		c.used -= cost.Bytes(e.size)
		delete(c.entries, id)
	}
}

// minEntry scans for the least credit, ties to the smaller ID.
func (c *scanGDS) minEntry() (model.ObjectID, bool) {
	var victim model.ObjectID
	found := false
	for id, e := range c.entries {
		if v := c.entries[victim]; !found || e.h < v.h || (e.h == v.h && id < victim) {
			victim, found = id, true
		}
	}
	return victim, found
}

// shrink evicts minimum-credit entries until at most limit is used.
func (c *scanGDS) shrink(limit cost.Bytes) (evicted []model.ObjectID) {
	for c.used > limit {
		victim, ok := c.minEntry()
		if !ok {
			break
		}
		c.inflate = c.entries[victim].h
		c.remove(victim)
		evicted = append(evicted, victim)
	}
	return evicted
}

func (c *scanGDS) insert(id model.ObjectID) {
	size := int64(c.sizes[id])
	e := &scanGDSEntry{size: size, cost: size, freq: 1}
	e.h = c.credit(e)
	c.entries[id] = e
	c.used += cost.Bytes(size)
}

// admit is one candidate's admission.
func (c *scanGDS) admit(id model.ObjectID) (evicted []model.ObjectID, admitted bool) {
	if c.sizes[id] > c.capacity {
		return nil, false
	}
	if _, ok := c.entries[id]; ok {
		c.touch(id)
		return nil, true
	}
	evicted = c.shrink(c.capacity - c.sizes[id])
	c.insert(id)
	return evicted, true
}

// admitBatch is the lazy elision over admit: what a batch admitted and
// then displaced is in neither list.
func (c *scanGDS) admitBatch(cands []model.ObjectID) (load, evict []model.ObjectID) {
	newly, evictedOld := map[model.ObjectID]bool{}, map[model.ObjectID]bool{}
	for _, id := range cands {
		_, wasPresent := c.entries[id]
		evicted, admitted := c.admit(id)
		for _, v := range evicted {
			if newly[v] {
				delete(newly, v)
			} else {
				evictedOld[v] = true
			}
		}
		if admitted && !wasPresent {
			newly[id] = true
		}
	}
	for id := range newly {
		load = append(load, id)
	}
	for id := range evictedOld {
		evict = append(evict, id)
	}
	slices.Sort(load)
	slices.Sort(evict)
	return load, evict
}

// warm adopts each id that fits the free capacity, evicting nothing.
func (c *scanGDS) warm(ids []model.ObjectID) (adopted []model.ObjectID) {
	for _, id := range ids {
		if _, ok := c.entries[id]; !ok {
			if c.used+c.sizes[id] > c.capacity {
				continue
			}
			c.insert(id)
		}
		adopted = append(adopted, id)
	}
	return adopted
}

// forget removes the ids, residents first without moving the inflation,
// then shrinks to the new capacity.
func (c *scanGDS) forget(ids []model.ObjectID, capacity cost.Bytes) (evicted []model.ObjectID) {
	for _, id := range ids {
		if _, ok := c.entries[id]; ok {
			c.remove(id)
			evicted = append(evicted, id)
		}
	}
	c.capacity = capacity
	return append(evicted, c.shrink(capacity)...)
}

// scanKeys are the object IDs TestQuickHeapMatchesScan draws, ascending,
// so the per-object columns are exercised in all their ranges: the small
// sequential IDs of the dense range, IDs below 1 and far past it (the
// overflow map), and a chain past its end — once denseSlack+5 has grown
// the range, 2·denseSlack+2 grows it again over 2·denseSlack, which an
// earlier write left in the overflow map, and must absorb it.
var scanKeys = func() []model.ObjectID {
	keys := []model.ObjectID{-7, 0}
	for k := model.ObjectID(1); k <= 18; k++ {
		keys = append(keys, k)
	}
	return append(keys, denseSlack+5, 2*denseSlack, 2*denseSlack+2, 1<<30, math.MaxInt32)
}()

// TestQuickHeapMatchesScan drives VCover's eviction order (its integer
// priority column and lazy heap) and the floating-point scanning oracle
// through the same random hits, batches, warm arrivals and forgets,
// over objects whose sizes (0..5) and capacities are drawn from so few
// values that zero-size objects and equal priorities are common. Every
// call must name the same victims in the same order, and leave the same
// L, priorities, residents and used capacity, which never exceeds the
// capacity.
func TestQuickHeapMatchesScan(t *testing.T) {
	var elided, ties, zeroSize, sparse, shrunk int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := &scanGDS{
			capacity: cost.Bytes(rng.Intn(40) + 1),
			sizes:    map[model.ObjectID]cost.Bytes{},
			entries:  map[model.ObjectID]*scanGDSEntry{},
		}
		objs := make([]model.Object, len(scanKeys))
		for i, id := range scanKeys {
			o.sizes[id] = cost.Bytes(rng.Intn(6))
			objs[i] = model.Object{ID: id, Size: o.sizes[id]}
		}
		p := NewVCover(DefaultVCoverConfig())
		if err := p.Init(objs, o.capacity); err != nil {
			t.Error(err)
			return false
		}
		draw := func(n int) []model.ObjectID {
			ids := make([]model.ObjectID, n)
			for i := range ids {
				ids[i] = scanKeys[rng.Intn(len(scanKeys))]
			}
			return ids
		}
		for step := 0; step < 400; step++ {
			if id, ok := o.minEntry(); ok {
				for other, e := range o.entries {
					if other != id && e.h == o.entries[id].h {
						ties++
						break
					}
				}
			}
			var got, want []model.ObjectID
			var err error
			op := rng.Intn(8)
			switch op {
			case 0, 1: // a hit on every resident a query names
				id := draw(1)[0]
				if p.idx.isCached(id) {
					p.touch(id)
				}
				o.touch(id)
			case 2:
				ids := draw(rng.Intn(4))
				got, err = p.Warm(ids)
				want = o.warm(ids)
			case 3:
				ids := slices.Compact(slices.Sorted(slices.Values(draw(rng.Intn(3)))))
				capacity := cost.Bytes(rng.Intn(40))
				if capacity < o.used {
					shrunk++
				}
				var d Decision
				if d, err = p.Forget(ids, capacity); err == nil {
					got, want = d.Evict, o.forget(ids, capacity)
					// The forgotten objects rejoin cold, at new sizes.
					rejoin := make([]model.Object, len(ids))
					for i, id := range ids {
						o.sizes[id] = cost.Bytes(rng.Intn(6))
						rejoin[i] = model.Object{ID: id, Size: o.sizes[id]}
					}
					_, err = p.AddObjects(rejoin)
				}
			default:
				batch := draw(rng.Intn(6))
				var load, evict []model.ObjectID
				if load, evict, err = p.admitBatch(batch); err == nil {
					wantLoad, wantEvict := o.admitBatch(batch)
					if !slices.Equal(load, wantLoad) || !slices.Equal(evict, wantEvict) {
						t.Errorf("seed %d step %d: batch %v loads %v and evicts %v; scan says %v, %v",
							seed, step, batch, load, evict, wantLoad, wantEvict)
						return false
					}
					for _, id := range batch {
						if _, ok := o.entries[id]; !ok && !slices.Contains(wantLoad, id) && o.sizes[id] <= o.capacity {
							elided++
							break
						}
					}
				}
			}
			if err != nil {
				t.Errorf("seed %d step %d: %v", seed, step, err)
				return false
			}
			if op == 2 || op == 3 {
				if !slices.Equal(got, want) {
					t.Errorf("seed %d step %d: op %d gave %v; scan says %v", seed, step, op, got, want)
					return false
				}
			}
			if float64(p.floor) != o.inflate || p.idx.used != o.used || p.idx.capacity != o.capacity ||
				p.idx.used > p.idx.capacity || p.idx.cached.len() != len(o.entries) || len(p.order) != len(o.entries) {
				t.Errorf("seed %d step %d: L %d used %d of %d, %d residents, heap %d; scan says %v, %d of %d, %d",
					seed, step, p.floor, p.idx.used, p.idx.capacity, p.idx.cached.len(), len(p.order),
					o.inflate, o.used, o.capacity, len(o.entries))
				return false
			}
			var sum cost.Bytes
			for id, e := range o.entries {
				if !p.idx.isCached(id) || float64(p.prio.get(id)) != e.h {
					t.Errorf("seed %d step %d: resident %v with H %d; scan says H %v", seed, step, p.idx.isCached(id), p.prio.get(id), e.h)
					return false
				}
				sum += cost.Bytes(e.size)
				if e.size == 0 {
					zeroSize++
				}
				if id < 1 || id > denseSlack {
					sparse++
				}
			}
			if sum != p.idx.used {
				t.Errorf("seed %d step %d: residents sum to %d, used %d", seed, step, sum, p.idx.used)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if elided == 0 || ties == 0 || zeroSize == 0 || sparse == 0 || shrunk == 0 {
		t.Errorf("the sequences missed a case: %d elided batches, %d tied victims, %d zero-size and %d sparse resident-steps, %d shrinking forgets",
			elided, ties, zeroSize, sparse, shrunk)
	}
}
