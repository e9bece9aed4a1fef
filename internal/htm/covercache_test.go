package htm

import (
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
)

func TestCoverCacheHitMissAndBump(t *testing.T) {
	calls, grown := 0, 0
	cc := NewCoverCache(8, func(c geom.Cap) []model.ObjectID {
		calls++
		return []model.ObjectID{1, 2, 3}
	}, func(b []model.Birth) error {
		grown += len(b)
		return errors.New("resolver rejected the births")
	})
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
	if err := cc.Grow(make([]model.Birth, 2)); err == nil || grown != 2 {
		t.Fatalf("Grow = %v after growing %d births, want the grow error after 2", err, grown)
	}
	cc.Resolve(capA)
	if calls != 2 {
		t.Fatalf("resolve after Grow served a stale cover (calls=%d)", calls)
	}
}

// TestCoverCacheRegion pins the region path both nodes serve: the span
// detail, an empty cover's error, and a nil cache refusing regions.
func TestCoverCacheRegion(t *testing.T) {
	cc := NewCoverCache(8, func(c geom.Cap) []model.ObjectID {
		if c.Center.Z > 0 {
			return []model.ObjectID{7}
		}
		return nil
	}, nil)
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
		t.Errorf("Grow without a grow function = %v", err)
	}

	var none *CoverCache
	if got := NewCoverCache(8, nil, nil); got != nil {
		t.Fatalf("NewCoverCache without a resolver = %v, want nil", got)
	}
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

func TestCoverCacheLRUEviction(t *testing.T) {
	calls := map[float64]int{}
	cc := NewCoverCache(2, func(c geom.Cap) []model.ObjectID {
		calls[raOf(c)]++
		return []model.ObjectID{model.ObjectID(raOf(c))}
	}, nil)
	capOf := func(ra float64) geom.Cap { return geom.CapFromRADec(ra, 0, 1) }

	cc.Resolve(capOf(10))
	cc.Resolve(capOf(20))
	cc.Resolve(capOf(10)) // refresh 10 → 20 is now LRU
	cc.Resolve(capOf(30)) // evicts 20
	cc.Resolve(capOf(10)) // still cached
	cc.Resolve(capOf(20)) // must recompute
	if calls[10] != 1 {
		t.Errorf("entry 10 recomputed %d times, want 1 (LRU refresh lost)", calls[10])
	}
	if calls[20] != 2 {
		t.Errorf("entry 20 computed %d times, want 2 (eviction expected)", calls[20])
	}
	if calls[30] != 1 {
		t.Errorf("entry 30 computed %d times, want 1", calls[30])
	}
}

func TestCoverCacheQuantizationSharesNearbyCaps(t *testing.T) {
	calls := 0
	cc := NewCoverCache(8, func(geom.Cap) []model.ObjectID { calls++; return []model.ObjectID{1} }, nil)
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
	cc := NewCoverCache(16, func(c geom.Cap) []model.ObjectID {
		return []model.ObjectID{model.ObjectID(raOf(c)) + 1}
	}, nil)
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
