package core

import (
	"testing"

	"github.com/deltacache/delta/internal/model"
)

// testResult stands in for the router's merged result frame: the cache
// only stores and copies its value.
type testResult struct{ Payload []byte }

// denseIDs is the position lookup of a universe with IDs 1..N, for
// caches built without a router.
func denseIDs(id model.ObjectID) (int, bool) { return int(id) - 1, id >= 1 }

// lead drives one complete leader pass through the cache: begin must
// hand back a fresh flight, which is completed with the given result.
func lead(t *testing.T, c *ResultCache[testResult], objs []model.ObjectID, res testResult) {
	t.Helper()
	cached, fl, leader := c.Begin(objs)
	if cached != nil || fl == nil || !leader {
		t.Fatalf("begin(%v) = (%v, %v, %v), want a fresh leader flight", objs, cached, fl, leader)
	}
	c.Complete(fl, res, true)
}

func TestResultCacheHitAndLRUEviction(t *testing.T) {
	c := NewResultCache[testResult](2, denseIDs)
	a := []model.ObjectID{1, 2}
	b := []model.ObjectID{3, 4}
	d := []model.ObjectID{5, 6}
	lead(t, c, a, testResult{Payload: []byte("a")})
	lead(t, c, b, testResult{Payload: []byte("b")})

	// Hit A (order within the query must not matter), refreshing its
	// LRU position so B is now the eviction candidate.
	cached, fl, _ := c.Begin([]model.ObjectID{2, 1})
	if cached == nil || fl != nil {
		t.Fatalf("begin(a) after insert = (%v, %v), want a cache hit", cached, fl)
	}
	if string(cached.Payload) != "a" {
		t.Fatalf("hit returned payload %q, want %q", cached.Payload, "a")
	}

	// Inserting a third entry at size 2 must evict the LRU tail: B.
	lead(t, c, d, testResult{Payload: []byte("d")})
	if n := c.Len(); n != 2 {
		t.Fatalf("cache holds %d entries after eviction, want 2", n)
	}
	if cached, _, _ := c.Begin(a); cached == nil {
		t.Error("A evicted; LRU refresh on hit was lost")
	}
	if cached, fl, leader := c.Begin(b); cached != nil || !leader {
		t.Errorf("begin(b) = (%v, %v, %v); B must have been evicted as the LRU tail", cached, fl, leader)
	}
	if c.Hits() != 2 {
		t.Errorf("hits = %d, want 2", c.Hits())
	}
}

func TestResultCacheInvalidateEvictsMemberEntries(t *testing.T) {
	c := NewResultCache[testResult](8, denseIDs)
	lead(t, c, []model.ObjectID{1, 2}, testResult{})
	lead(t, c, []model.ObjectID{2, 3}, testResult{})
	lead(t, c, []model.ObjectID{4}, testResult{})

	c.Invalidate(2)
	if n := c.Len(); n != 1 {
		t.Fatalf("cache holds %d entries after invalidating object 2, want 1", n)
	}
	if cached, _, _ := c.Begin([]model.ObjectID{4}); cached == nil {
		t.Error("entry not containing the invalidated object was evicted")
	}
	if cached, _, _ := c.Begin([]model.ObjectID{1, 2}); cached != nil {
		t.Error("entry containing the invalidated object survived")
	}
	if c.Invalidations() != 2 {
		t.Errorf("invalidations = %d, want 2", c.Invalidations())
	}
}

func TestResultCacheInvalidatePoisonsFlight(t *testing.T) {
	c := NewResultCache[testResult](8, denseIDs)
	_, fl, leader := c.Begin([]model.ObjectID{7, 8})
	if fl == nil || !leader {
		t.Fatal("expected a fresh leader flight")
	}
	c.Invalidate(8)
	c.Complete(fl, testResult{Payload: []byte("stale")}, true)
	if fl.shared {
		t.Error("poisoned flight shared its result with followers")
	}
	if n := c.Len(); n != 0 {
		t.Errorf("poisoned flight inserted into the cache (%d entries)", n)
	}
}

func TestResultCacheClearPoisonsAndWipes(t *testing.T) {
	c := NewResultCache[testResult](8, denseIDs)
	lead(t, c, []model.ObjectID{1}, testResult{})
	_, fl, leader := c.Begin([]model.ObjectID{2})
	if fl == nil || !leader {
		t.Fatal("expected a fresh leader flight")
	}
	c.Clear()
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after clear", n)
	}
	c.Complete(fl, testResult{}, true)
	if fl.shared {
		t.Error("flight spanning a clear (epoch flip) shared its result")
	}
	if n := c.Len(); n != 0 {
		t.Errorf("flight spanning a clear entered the cache (%d entries)", n)
	}
}

// TestResultCacheDisableFailsClosed pins the response to a gap in the
// stream and to its resume: at the gap the cache is wiped, a flight in
// motion is poisoned, and begin neither serves nor opens a flight; at
// the resume a flight that spans it is poisoned too, and begin leads
// flights again.
func TestResultCacheDisableFailsClosed(t *testing.T) {
	c := NewResultCache[testResult](8, denseIDs)
	lead(t, c, []model.ObjectID{1}, testResult{})
	_, fl, _ := c.Begin([]model.ObjectID{2})
	c.SetOff(true)
	c.Complete(fl, testResult{}, true)
	if fl.shared || c.Len() != 0 {
		t.Errorf("after disable: flight shared=%v, %d residents; want neither", fl.shared, c.Len())
	}
	for _, objs := range [][]model.ObjectID{{1}, {2}, {3}} {
		if cached, fl, leader := c.Begin(objs); cached != nil || fl != nil || leader {
			t.Errorf("begin(%v) on a disabled cache = (%v, %v, %v), want a plain pass-through", objs, cached, fl, leader)
		}
	}
	c.SetOff(false)
	_, fl, leader := c.Begin([]model.ObjectID{2})
	if fl == nil || !leader {
		t.Fatal("begin after the resume opened no flight")
	}
	c.SetOff(false) // a second resume: the flight spans it
	c.Complete(fl, testResult{}, true)
	if fl.shared || c.Len() != 0 {
		t.Errorf("a flight spanning a resume: shared=%v, %d residents; want neither", fl.shared, c.Len())
	}
}

// TestResultCacheCollisionPassesThrough pins the collision contract: a
// resident entry whose signature matches but whose ID set differs must
// neither answer the query nor be evicted — the colliding query passes
// through uncached, costing performance only.
func TestResultCacheCollisionPassesThrough(t *testing.T) {
	c := NewResultCache[testResult](8, denseIDs)
	// Forge a collision: insert under query {5}'s signature an entry
	// claiming a different member set.
	sig, _ := querySignature([]model.ObjectID{5})
	c.mu.Lock()
	c.insertLocked(sig, []model.ObjectID{99}, testResult{Payload: []byte("other")})
	c.mu.Unlock()

	cached, fl, leader := c.Begin([]model.ObjectID{5})
	if cached != nil {
		t.Fatal("collision served the resident entry's payload")
	}
	if fl != nil || leader {
		t.Fatal("collision opened a flight; it must pass through uncached")
	}
	if n := c.Len(); n != 1 {
		t.Errorf("collision disturbed the resident entry (%d entries)", n)
	}
}

// TestResultCacheNilReceiver pins the unconfigured-router contract:
// every method on a nil cache is a safe no-op.
func TestResultCacheNilReceiver(t *testing.T) {
	var c *ResultCache[testResult]
	if cached, fl, leader := c.Begin([]model.ObjectID{1}); cached != nil || fl != nil || leader {
		t.Error("nil cache begin must report a plain pass-through")
	}
	c.Complete(nil, testResult{}, true)
	c.Invalidate(1)
	c.Clear()
	c.SetOff(true)
	if c.Len() != 0 || c.Hits() != 0 || c.Misses() != 0 || c.Coalesced() != 0 || c.Invalidations() != 0 {
		t.Error("nil cache accessors must all report zero")
	}
}
