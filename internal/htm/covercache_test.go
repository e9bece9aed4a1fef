package htm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
)

// fakeUniverse resolves every cap through cover and grows a dense ID
// sequence from next, recording what it added; a set err rejects
// every birth.
type fakeUniverse struct {
	cover func(geom.Cap) []model.ObjectID
	next  model.ObjectID
	added []model.ObjectID
	err   error
}

func (u *fakeUniverse) CoverCap(c geom.Cap) []model.ObjectID { return u.cover(c) }
func (u *fakeUniverse) NextID() model.ObjectID               { return u.next }
func (u *fakeUniverse) AddObject(b model.Birth) error {
	if u.err != nil {
		return u.err
	}
	if b.Object.ID != u.next {
		return fmt.Errorf("birth %d out of sequence (next is %d)", b.Object.ID, u.next)
	}
	u.added = append(u.added, b.Object.ID)
	u.next++
	return nil
}

func coverOf(cover func(geom.Cap) []model.ObjectID) *CoverCache {
	return NewCoverCache(&fakeUniverse{cover: cover, next: 1})
}

func births(ids ...model.ObjectID) []model.Birth {
	out := make([]model.Birth, len(ids))
	for i, id := range ids {
		out[i].Object = model.Object{ID: id, Size: 1}
	}
	return out
}

func TestCoverCacheHitMissAndBump(t *testing.T) {
	calls := 0
	u := &fakeUniverse{cover: func(c geom.Cap) []model.ObjectID {
		calls++
		return []model.ObjectID{1, 2, 3}
	}, next: 1, err: errors.New("universe rejected the birth")}
	cc := NewCoverCache(u)
	capA := geom.CapFromRADec(120, 30, 2)

	got, hit := cc.Resolve(capA)
	if len(got) != 3 || calls != 1 || hit {
		t.Fatalf("first resolve: ids=%v calls=%d hit=%v", got, calls, hit)
	}
	for i := 0; i < 5; i++ {
		if _, hit := cc.Resolve(capA); !hit {
			t.Fatalf("repeat %d missed", i)
		}
	}
	if calls != 1 {
		t.Fatalf("repeated resolves recomputed: calls=%d", calls)
	}
	hits, misses := cc.Stats()
	if hits != 5 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 5/1", hits, misses)
	}

	// Growth (even a failed one) invalidates: the next resolve misses.
	if err := cc.Grow(births(1, 2)); err == nil {
		t.Fatal("Grow hid the universe's error")
	}
	cc.Resolve(capA)
	if calls != 2 {
		t.Fatalf("resolve after Grow served a stale cover (calls=%d)", calls)
	}
}

// TestCoverCacheRegion pins the region path both nodes serve: the span
// detail, an empty cover's error, and a nil cache refusing regions.
func TestCoverCacheRegion(t *testing.T) {
	cc := coverOf(func(c geom.Cap) []model.ObjectID {
		if c.Center.Z > 0 {
			return []model.ObjectID{7}
		}
		return nil
	})
	for _, want := range []string{"cover-cache=miss", "cover-cache=hit"} {
		ids, detail, err := cc.Region(0, 45, 1)
		if err != nil || len(ids) != 1 || detail != want {
			t.Fatalf("Region = %v, %q, %v; want [7], %q", ids, detail, err, want)
		}
	}
	if _, _, err := cc.Region(0, -45, 1); err == nil {
		t.Error("a region covering no objects resolved")
	}
	if err := cc.Grow(nil); err != nil {
		t.Errorf("Grow(nil) = %v", err)
	}

	var none *CoverCache
	if _, _, err := none.Region(0, 45, 1); err == nil {
		t.Error("a nil cover cache resolved a region")
	}
	if err := none.Grow(nil); err != nil {
		t.Errorf("nil Grow = %v", err)
	}
	if h, m := none.Stats(); h != 0 || m != 0 {
		t.Errorf("nil Stats = %d/%d", h, m)
	}
}

// raOf keys a test cap by its center's right ascension.
func raOf(c geom.Cap) float64 {
	ra, _ := c.Center.RADec()
	return math.Round(ra)
}

// TestCoverCacheLRUEviction fills the cache, refreshes its oldest
// entry, and adds one more: the least recently used entry goes.
func TestCoverCacheLRUEviction(t *testing.T) {
	calls := map[float64]int{}
	cc := coverOf(func(c geom.Cap) []model.ObjectID {
		calls[raOf(c)]++
		return []model.ObjectID{model.ObjectID(raOf(c))}
	})
	capOf := func(ra float64) geom.Cap { return geom.CapFromRADec(ra, 0, 1) }

	for ra := 0; ra < coverCacheSize; ra++ {
		cc.Resolve(capOf(float64(ra)))
	}
	cc.Resolve(capOf(0))              // refresh 0 → 1 is now LRU
	cc.Resolve(capOf(coverCacheSize)) // evicts 1
	cc.Resolve(capOf(0))              // still cached
	cc.Resolve(capOf(1))              // must recompute
	if calls[0] != 1 {
		t.Errorf("entry 0 recomputed %d times, want 1 (LRU refresh lost)", calls[0])
	}
	if calls[1] != 2 {
		t.Errorf("entry 1 computed %d times, want 2 (eviction expected)", calls[1])
	}
	if calls[coverCacheSize] != 1 {
		t.Errorf("entry %d computed %d times, want 1", coverCacheSize, calls[coverCacheSize])
	}
}

// TestCoverCacheGrowsInIDOrder feeds births out of order, repeated and
// past the hold bound: the universe grows densely in ID order, a
// birth waits for the gap below it, and a refused birth is reported.
func TestCoverCacheGrowsInIDOrder(t *testing.T) {
	u := &fakeUniverse{cover: func(geom.Cap) []model.ObjectID { return nil }, next: 17}
	cc := NewCoverCache(u)
	for _, step := range []struct {
		births []model.Birth
		added  []model.ObjectID
	}{
		{births(18), nil},
		{births(16, 17), []model.ObjectID{17, 18}},
		{births(20, 17, 19), []model.ObjectID{17, 18, 19, 20}},
	} {
		if err := cc.Grow(step.births); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(u.added, step.added) {
			t.Fatalf("after %v the universe added %v, want %v", step.births, u.added, step.added)
		}
	}

	ahead := make([]model.ObjectID, maxHeldBirths+1)
	for i := range ahead {
		ahead[i] = model.ObjectID(22 + i)
	}
	if err := cc.Grow(births(ahead...)); err == nil || !strings.Contains(err.Error(), "dropped birth") {
		t.Fatalf("Grow past the hold bound = %v, want a dropped birth", err)
	}
	if err := cc.Grow(births(21)); err != nil {
		t.Fatal(err)
	}
	if got, want := u.next, model.ObjectID(22+maxHeldBirths); got != want {
		t.Errorf("after the gap filled the next ID is %d, want %d (the held births, not the dropped one)", got, want)
	}
}

func TestCoverCacheQuantizationSharesNearbyCaps(t *testing.T) {
	calls := 0
	cc := coverOf(func(geom.Cap) []model.ObjectID { calls++; return []model.ObjectID{1} })
	cc.Resolve(geom.CapFromRADec(45, -10, 1.5))
	// A cap perturbed far below the quantum maps to the same entry…
	cc.Resolve(geom.CapFromRADec(45+1e-10, -10, 1.5))
	if calls != 1 {
		t.Errorf("sub-quantum perturbation recomputed (calls=%d)", calls)
	}
	// …while a clearly different cap does not.
	cc.Resolve(geom.CapFromRADec(46, -10, 1.5))
	if calls != 2 {
		t.Errorf("distinct cap shared an entry (calls=%d)", calls)
	}
}

// TestCoverCacheConcurrent hammers one cache from many goroutines
// (run under -race in CI): resolves must stay consistent and the
// hit+miss totals must equal the resolve count.
func TestCoverCacheConcurrent(t *testing.T) {
	cc := coverOf(func(c geom.Cap) []model.ObjectID {
		return []model.ObjectID{model.ObjectID(raOf(c)) + 1}
	})
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ra := float64((g*perG + i) % 32)
				ids, _ := cc.Resolve(geom.CapFromRADec(ra, 0, 1))
				if len(ids) != 1 || ids[0] != model.ObjectID(ra)+1 {
					t.Errorf("wrong cover for ra=%v: %v", ra, ids)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := cc.Stats()
	if hits+misses != goroutines*perG {
		t.Errorf("hits %d + misses %d != %d resolves", hits, misses, goroutines*perG)
	}
}
