package gds

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, capacity int64, gdsf bool) *Cache {
	t.Helper()
	c, err := New(capacity, gdsf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewNegativeCapacity(t *testing.T) {
	if _, err := New(-1, false); err == nil {
		t.Error("New(-1) should fail")
	}
}

func TestAdmitAndContains(t *testing.T) {
	c := mustNew(t, 100, false)
	evicted, ok := c.Admit(Entry{Key: 1, Size: 40, Cost: 40})
	if !ok || len(evicted) != 0 {
		t.Fatalf("Admit = (%v, %v), want ([], true)", evicted, ok)
	}
	if !c.Contains(1) || c.Used() != 40 || c.Len() != 1 {
		t.Errorf("cache state wrong: used=%d len=%d", c.Used(), c.Len())
	}
}

func TestAdmitOversizedRejected(t *testing.T) {
	c := mustNew(t, 100, false)
	_, _ = c.Admit(Entry{Key: 1, Size: 50, Cost: 50})
	evicted, ok := c.Admit(Entry{Key: 2, Size: 101, Cost: 101})
	if ok || len(evicted) != 0 {
		t.Errorf("oversized admit = (%v, %v), want ([], false)", evicted, ok)
	}
	if !c.Contains(1) {
		t.Error("oversized admit disturbed existing contents")
	}
}

func TestAdmitNegativeSizeRejected(t *testing.T) {
	c := mustNew(t, 100, false)
	if _, ok := c.Admit(Entry{Key: 1, Size: -5, Cost: 1}); ok {
		t.Error("negative size should be rejected")
	}
	if _, ok := c.Admit(Entry{Key: 1, Size: 5, Cost: -1}); ok {
		t.Error("negative cost should be rejected")
	}
}

func TestEvictionMakesRoom(t *testing.T) {
	c := mustNew(t, 100, false)
	_, _ = c.Admit(Entry{Key: 1, Size: 60, Cost: 60})
	_, _ = c.Admit(Entry{Key: 2, Size: 40, Cost: 40})
	evicted, ok := c.Admit(Entry{Key: 3, Size: 50, Cost: 50})
	if !ok {
		t.Fatal("admission failed")
	}
	if len(evicted) == 0 {
		t.Fatal("expected evictions")
	}
	if c.Used() > c.Capacity() {
		t.Errorf("capacity exceeded: %d > %d", c.Used(), c.Capacity())
	}
}

func TestRecencyEviction(t *testing.T) {
	// Equal cost/size ratios: GDS degenerates to recency (Greedy-Dual),
	// but recency only manifests once the inflation level L has risen
	// past the initial credits — that is the aging mechanism.
	c := mustNew(t, 100, false)
	_, _ = c.Admit(Entry{Key: 1, Size: 50, Cost: 100}) // h = 2
	_, _ = c.Admit(Entry{Key: 2, Size: 50, Cost: 50})  // h = 1
	// Admitting 3 evicts 2 (lowest credit) and raises L to 1.
	if evicted, ok := c.Admit(Entry{Key: 3, Size: 50, Cost: 50}); !ok ||
		len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("warmup admission: evicted=%v ok=%v", evicted, ok)
	}
	// Refresh 1: its credit becomes L+2 = 3, above 3's credit of 2.
	// Without the touch, 1 and 3 would tie at 2 and 1 would be evicted.
	c.Touch(1)
	evicted, ok := c.Admit(Entry{Key: 4, Size: 50, Cost: 50})
	if !ok {
		t.Fatal("admission failed")
	}
	if len(evicted) != 1 || evicted[0] != 3 {
		t.Errorf("evicted %v, want [3]", evicted)
	}
	if !c.Contains(1) || !c.Contains(4) {
		t.Errorf("wrong survivors: %v", c.Keys())
	}
}

func TestCostAwareEviction(t *testing.T) {
	// With equal sizes, the cheaper-to-fetch object is evicted first.
	c := mustNew(t, 100, false)
	_, _ = c.Admit(Entry{Key: 1, Size: 50, Cost: 500}) // expensive
	_, _ = c.Admit(Entry{Key: 2, Size: 50, Cost: 5})   // cheap
	evicted, _ := c.Admit(Entry{Key: 3, Size: 50, Cost: 50})
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Errorf("evicted %v, want [2] (cheap object)", evicted)
	}
}

func TestSizeAwareEviction(t *testing.T) {
	// With equal costs, the larger object has lower credit density and
	// is evicted first.
	c := mustNew(t, 150, false)
	_, _ = c.Admit(Entry{Key: 1, Size: 100, Cost: 50}) // big
	_, _ = c.Admit(Entry{Key: 2, Size: 10, Cost: 50})  // small
	evicted, _ := c.Admit(Entry{Key: 3, Size: 100, Cost: 50})
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Errorf("evicted %v, want [1] (big object)", evicted)
	}
}

func TestGDSFFrequencyProtects(t *testing.T) {
	c := mustNew(t, 100, true)
	_, _ = c.Admit(Entry{Key: 1, Size: 50, Cost: 50})
	_, _ = c.Admit(Entry{Key: 2, Size: 50, Cost: 50})
	// Hammer object 1; GDSF should protect it even though 2 is newer.
	for i := 0; i < 10; i++ {
		c.Touch(1)
	}
	evicted, _ := c.Admit(Entry{Key: 3, Size: 50, Cost: 50})
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Errorf("evicted %v, want [2] (frequent object protected)", evicted)
	}
}

func TestInflationAges(t *testing.T) {
	// After many evictions the inflation level must rise, letting new
	// cheap objects displace old expensive ones eventually.
	c := mustNew(t, 100, false)
	_, _ = c.Admit(Entry{Key: 1, Size: 100, Cost: 10000}) // very expensive
	for i := int64(2); i < 10; i++ {
		_, ok := c.Admit(Entry{Key: i, Size: 100, Cost: 150})
		if !ok {
			t.Fatalf("admission %d failed", i)
		}
	}
	if c.Contains(1) {
		t.Error("expensive object should age out after enough faults")
	}
}

func TestAdmitExistingRefreshes(t *testing.T) {
	c := mustNew(t, 100, false)
	_, _ = c.Admit(Entry{Key: 1, Size: 30, Cost: 30})
	h0, _ := c.Credit(1)
	// Force inflation up.
	_, _ = c.Admit(Entry{Key: 2, Size: 70, Cost: 70})
	_, _ = c.Admit(Entry{Key: 3, Size: 70, Cost: 70})
	evicted, ok := c.Admit(Entry{Key: 1, Size: 30, Cost: 30})
	if !ok || len(evicted) != 0 {
		t.Fatalf("re-admit = (%v,%v)", evicted, ok)
	}
	h1, _ := c.Credit(1)
	if h1 < h0 {
		t.Errorf("credit decreased on refresh: %v -> %v", h0, h1)
	}
	if c.Used() != 100 {
		t.Errorf("used = %d, want 100 (no double count)", c.Used())
	}
}

func TestRemove(t *testing.T) {
	c := mustNew(t, 100, false)
	_, _ = c.Admit(Entry{Key: 1, Size: 30, Cost: 30})
	c.Remove(1)
	if c.Contains(1) || c.Used() != 0 {
		t.Error("Remove failed")
	}
	c.Remove(99) // absent: no-op
}

func TestKeysSorted(t *testing.T) {
	c := mustNew(t, 100, false)
	for _, k := range []int64{5, 1, 3} {
		_, _ = c.Admit(Entry{Key: k, Size: 10, Cost: 10})
	}
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 5 {
		t.Errorf("Keys = %v", keys)
	}
}

func TestAdmitBatchLazyElision(t *testing.T) {
	// Candidates that are admitted then displaced within the same batch
	// must not appear in the load plan.
	c := mustNew(t, 100, false)
	res := c.AdmitBatch([]Entry{
		{Key: 1, Size: 90, Cost: 10},   // low credit density
		{Key: 2, Size: 90, Cost: 9000}, // displaces 1 within the batch
	})
	if len(res.Load) != 1 || res.Load[0] != 2 {
		t.Errorf("Load = %v, want [2]", res.Load)
	}
	if len(res.Evict) != 0 {
		t.Errorf("Evict = %v, want [] (1 was never physically loaded)", res.Evict)
	}
}

func TestAdmitBatchEvictsOldOnly(t *testing.T) {
	c := mustNew(t, 100, false)
	_, _ = c.Admit(Entry{Key: 1, Size: 80, Cost: 10})
	res := c.AdmitBatch([]Entry{{Key: 2, Size: 80, Cost: 8000}})
	if len(res.Load) != 1 || res.Load[0] != 2 {
		t.Errorf("Load = %v, want [2]", res.Load)
	}
	if len(res.Evict) != 1 || res.Evict[0] != 1 {
		t.Errorf("Evict = %v, want [1]", res.Evict)
	}
}

func TestAdmitBatchPreexistingReofferNotElided(t *testing.T) {
	// A pre-existing object displaced by a batch that also re-offered it
	// must be reported as evicted (it physically occupies space).
	c := mustNew(t, 100, false)
	_, _ = c.Admit(Entry{Key: 1, Size: 60, Cost: 1})
	res := c.AdmitBatch([]Entry{
		{Key: 1, Size: 60, Cost: 1},    // touch
		{Key: 2, Size: 90, Cost: 9000}, // displaces 1
	})
	if len(res.Evict) != 1 || res.Evict[0] != 1 {
		t.Errorf("Evict = %v, want [1]", res.Evict)
	}
	if len(res.Load) != 1 || res.Load[0] != 2 {
		t.Errorf("Load = %v, want [2]", res.Load)
	}
}

func TestCapacityInvariantProperty(t *testing.T) {
	// Random operation sequences never exceed capacity, and Used always
	// equals the sum of resident sizes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(rng.Intn(500) + 1)
		c, err := New(capacity, rng.Intn(2) == 0)
		if err != nil {
			return false
		}
		sizes := make(map[int64]int64)
		for i := 0; i < 300; i++ {
			key := int64(rng.Intn(30))
			switch rng.Intn(4) {
			case 0:
				c.Touch(key)
			case 1:
				c.Remove(key)
				delete(sizes, key)
			default:
				size := int64(rng.Intn(200) + 1)
				cost := int64(rng.Intn(1000))
				wasPresent := c.Contains(key)
				evicted, ok := c.Admit(Entry{Key: key, Size: size, Cost: cost})
				for _, v := range evicted {
					delete(sizes, v)
				}
				if ok && !wasPresent {
					sizes[key] = size
				}
			}
			if c.Used() > c.Capacity() {
				return false
			}
			var sum int64
			for _, s := range sizes {
				sum += s
			}
			if sum != c.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAdmitBatchMatchesSequentialState(t *testing.T) {
	// The cache state after AdmitBatch must equal the state after the
	// same Admit calls done sequentially (laziness only changes the
	// physical load plan, not the bookkeeping).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a := mustNew(t, 300, true)
		b := mustNew(t, 300, true)
		var warm []Entry
		for i := 0; i < 5; i++ {
			warm = append(warm, Entry{Key: int64(i), Size: int64(rng.Intn(90) + 1), Cost: int64(rng.Intn(500))})
		}
		for _, e := range warm {
			_, _ = a.Admit(e)
			_, _ = b.Admit(e)
		}
		var batch []Entry
		for i := 0; i < 6; i++ {
			batch = append(batch, Entry{Key: int64(10 + i), Size: int64(rng.Intn(150) + 1), Cost: int64(rng.Intn(500))})
		}
		a.AdmitBatch(batch)
		for _, e := range batch {
			_, _ = b.Admit(e)
		}
		ka, kb := a.Keys(), b.Keys()
		if len(ka) != len(kb) {
			t.Fatalf("trial %d: key sets differ: %v vs %v", trial, ka, kb)
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("trial %d: key sets differ: %v vs %v", trial, ka, kb)
			}
		}
	}
}

// scanCache is the oracle for TestQuickHeapMatchesScan: Greedy-Dual-Size
// with the victim found by scanning every resident entry, as Cache did
// before it kept a heap.
type scanCache struct {
	capacity, used int64
	inflate        float64
	gdsf           bool
	entries        map[int64]*entry
}

func (c *scanCache) credit(e *entry) float64 {
	return (&Cache{inflate: c.inflate, gdsf: c.gdsf}).credit(e)
}

func (c *scanCache) touch(key int64) {
	if e, ok := c.entries[key]; ok {
		e.freq++
		e.h = c.credit(e)
	}
}

func (c *scanCache) remove(key int64) {
	if e, ok := c.entries[key]; ok {
		c.used -= e.size
		delete(c.entries, key)
	}
}

func (c *scanCache) admit(cand Entry) (evicted []int64, admitted bool) {
	if cand.Size > c.capacity || cand.Size < 0 || cand.Cost < 0 {
		return nil, false
	}
	if _, ok := c.entries[cand.Key]; ok {
		c.touch(cand.Key)
		return nil, true
	}
	for c.used+cand.Size > c.capacity {
		victim := c.minEntry()
		if victim == nil {
			return evicted, false
		}
		c.inflate = victim.h
		c.remove(victim.key)
		evicted = append(evicted, victim.key)
	}
	e := &entry{key: cand.Key, size: cand.Size, cost: cand.Cost, freq: 1}
	e.h = c.credit(e)
	c.entries[cand.Key] = e
	c.used += cand.Size
	return evicted, true
}

// minEntry scans for the minimum-credit entry, ties to the smaller key.
func (c *scanCache) minEntry() *entry {
	var victim *entry
	for _, e := range c.entries {
		if victim == nil || e.h < victim.h || (e.h == victim.h && e.key < victim.key) {
			victim = e
		}
	}
	return victim
}

// resize is Resize over the scan.
func (c *scanCache) resize(capacity int64) (evicted []int64) {
	c.capacity = capacity
	for c.used > c.capacity {
		victim := c.minEntry()
		c.inflate = victim.h
		c.remove(victim.key)
		evicted = append(evicted, victim.key)
	}
	return evicted
}

// admitBatch is AdmitBatch's elision over the oracle's admit.
func (c *scanCache) admitBatch(cands []Entry) BatchResult {
	newly, evictedOld := map[int64]bool{}, map[int64]bool{}
	for _, cand := range cands {
		_, wasPresent := c.entries[cand.Key]
		evicted, admitted := c.admit(cand)
		for _, v := range evicted {
			if newly[v] {
				delete(newly, v)
			} else {
				evictedOld[v] = true
			}
		}
		if admitted && !wasPresent {
			newly[cand.Key] = true
		}
	}
	var res BatchResult
	for k := range newly {
		res.Load = append(res.Load, k)
	}
	for k := range evictedOld {
		res.Evict = append(res.Evict, k)
	}
	slices.Sort(res.Load)
	slices.Sort(res.Evict)
	return res
}

// scanKeys are the keys TestQuickHeapMatchesScan draws, ascending, so
// the Cache's key index is exercised in all its ranges: the small
// sequential keys of the dense range, keys below 1 and far past it (the
// overflow map), and a chain past its end — once denseSlack+5 has grown
// the range, 2·denseSlack+2 grows it again over 2·denseSlack, which an
// earlier admission left in the overflow map, and must absorb it.
var scanKeys = func() []int64 {
	keys := []int64{-7, 0}
	for k := int64(1); k <= 18; k++ {
		keys = append(keys, k)
	}
	return append(keys, denseSlack+5, 2*denseSlack, 2*denseSlack+2, 1<<40, math.MaxInt64)
}()

// TestQuickHeapMatchesScan drives Cache and the scanning oracle through
// the same random Admit / AdmitBatch / Touch / Remove / Resize sequences, under
// GDS and GDSF, with sizes and costs drawn from so few values that
// equal credits are common: every call must name the same victims in
// the same order and leave the same inflation, credits and residents.
func TestQuickHeapMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(rng.Intn(40) + 1)
		gdsf := rng.Intn(2) == 0
		c, err := New(capacity, gdsf)
		if err != nil {
			t.Error(err)
			return false
		}
		o := &scanCache{capacity: capacity, gdsf: gdsf, entries: map[int64]*entry{}}
		cand := func() Entry {
			// Size -1..5 and cost -1..3: rejected, zero-size and tied
			// candidates all occur.
			return Entry{Key: scanKeys[rng.Intn(len(scanKeys))], Size: int64(rng.Intn(7) - 1), Cost: int64(rng.Intn(5) - 1)}
		}
		for step := 0; step < 400; step++ {
			switch key := scanKeys[rng.Intn(len(scanKeys))]; rng.Intn(7) {
			case 0:
				c.Remove(key)
				o.remove(key)
			case 6:
				capacity := int64(rng.Intn(40))
				got, err := c.Resize(capacity)
				if want := o.resize(capacity); err != nil || !slices.Equal(got, want) {
					t.Errorf("seed %d step %d: Resize(%d) = %v, %v; scan says %v", seed, step, capacity, got, err, want)
					return false
				}
			case 1, 2:
				c.Touch(key)
				o.touch(key)
			case 3:
				batch := make([]Entry, rng.Intn(6))
				for i := range batch {
					batch[i] = cand()
				}
				got, want := c.AdmitBatch(batch), o.admitBatch(batch)
				if !slices.Equal(got.Load, want.Load) || !slices.Equal(got.Evict, want.Evict) {
					t.Errorf("seed %d step %d: AdmitBatch(%v) = %+v, scan says %+v", seed, step, batch, got, want)
					return false
				}
			default:
				e := cand()
				gotEv, gotOK := c.Admit(e)
				wantEv, wantOK := o.admit(e)
				if gotOK != wantOK || !slices.Equal(gotEv, wantEv) {
					t.Errorf("seed %d step %d: Admit(%+v) = %v, %v; scan says %v, %v", seed, step, e, gotEv, gotOK, wantEv, wantOK)
					return false
				}
			}
			if c.inflate != o.inflate || c.used != o.used || c.Len() != len(o.entries) || len(c.order) != c.Len() {
				t.Errorf("seed %d step %d: inflate %v used %d len %d heap %d; scan says %v, %d, %d",
					seed, step, c.inflate, c.used, c.Len(), len(c.order), o.inflate, o.used, len(o.entries))
				return false
			}
			for k, oe := range o.entries {
				if h, ok := c.Credit(k); !ok || h != oe.h {
					t.Errorf("seed %d step %d: credit of %d = %v, %v; scan says %v", seed, step, k, h, ok, oe.h)
					return false
				}
			}
			for _, k := range scanKeys {
				if _, want := o.entries[k]; c.Contains(k) != want {
					t.Errorf("seed %d step %d: Contains(%d) = %v; scan says %v", seed, step, k, !want, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResizeNegativeCapacity(t *testing.T) {
	c := mustNew(t, 100, false)
	_, _ = c.Admit(Entry{Key: 1, Size: 60, Cost: 60})
	if _, err := c.Resize(-1); err == nil {
		t.Error("Resize(-1) should fail")
	}
	if c.Capacity() != 100 || !c.Contains(1) {
		t.Error("a refused Resize changed the cache")
	}
}
