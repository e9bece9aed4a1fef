package cluster

import (
	"math/rand"
	"testing"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// Micro-benchmarks of the router's write path, one function each: what
// an update notice and a miss cost the result cache, and what a birth
// costs the ownership map.

const benchUniverse = 1 << 16

// randomQuery draws k distinct objects of a dense 1..benchUniverse
// universe, none of them in reserved.
func randomQuery(rng *rand.Rand, k int, reserved model.ObjectID) []model.ObjectID {
	seen := make(map[model.ObjectID]struct{}, k)
	ids := make([]model.ObjectID, 0, k)
	for len(ids) < k {
		id := model.ObjectID(rng.Intn(benchUniverse-int(reserved))) + reserved + 1
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			ids = append(ids, id)
		}
	}
	return ids
}

func insertResult(c *resultCache, objs []model.ObjectID) {
	_, fl, leader := c.begin(objs)
	if leader {
		c.complete(fl, netproto.QueryResultMsg{}, true)
	}
}

// BenchmarkResultCacheInvalidate times one update notice against a full
// default-size cache of trace-typical (k = 4) entries: a notice on an
// object no resident names (every notice on flash-crowd), and one that
// evicts 8 residents.
func BenchmarkResultCacheInvalidate(b *testing.B) {
	const hot, unqueried = model.ObjectID(1), model.ObjectID(2)
	fill := func() (*resultCache, [][]model.ObjectID) {
		rng := rand.New(rand.NewSource(1))
		c := newResultCache(DefaultResultCacheSize, denseIDs)
		var matching [][]model.ObjectID
		for i := 0; i < DefaultResultCacheSize; i++ {
			objs := randomQuery(rng, 4, unqueried)
			if i%128 == 0 {
				objs[0] = hot
				matching = append(matching, objs)
			}
			insertResult(c, objs)
		}
		return c, matching
	}
	b.Run("none", func(b *testing.B) {
		c, _ := fill()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.invalidate(unqueried)
		}
		if c.Invalidations() != 0 {
			b.Fatal("the unqueried object evicted something")
		}
	})
	b.Run("match8", func(b *testing.B) {
		c, matching := fill()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.invalidate(hot)
			b.StopTimer()
			for _, objs := range matching {
				insertResult(c, objs)
			}
			b.StartTimer()
		}
		if got, want := c.Invalidations(), int64(b.N*len(matching)); got != want {
			b.Fatalf("%d evictions, want %d", got, want)
		}
	})
}

// BenchmarkResultCacheMissInsert times the miss path — begin, lead,
// complete, insert, LRU-evict — at a full cache, with the trace's member
// counts: mostly 4, one query in a hundred sky-wide (≈ 2,200).
func BenchmarkResultCacheMissInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	// Four cache sizes of distinct queries: by the time one comes round
	// again its entry is long evicted, so every begin misses.
	queries := make([][]model.ObjectID, 4*DefaultResultCacheSize)
	for i := range queries {
		k := 4
		if i%100 == 99 {
			k = 2200
		}
		queries[i] = randomQuery(rng, k, 0)
	}
	c := newResultCache(DefaultResultCacheSize, denseIDs)
	for _, objs := range queries {
		insertResult(c, objs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insertResult(c, queries[i%len(queries)])
	}
	if c.Hits() != 0 {
		b.Fatalf("%d hits on the miss path", c.Hits())
	}
}

// BenchmarkOwnershipExtend times adopting one birth into an 8,192-object
// HTM-aware universe, each extension building on the last as the
// router's do.
func BenchmarkOwnershipExtend(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	objs := make([]model.Object, 8192)
	for i := range objs {
		objs[i] = model.Object{ID: model.ObjectID(i + 1), Size: cost.MB, Trixel: uint64(rng.Intn(1 << 20))}
	}
	own, err := NewOwnership(objs, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		birth := model.Object{ID: model.ObjectID(len(objs) + i + 1), Size: cost.MB, Trixel: uint64(rng.Intn(1 << 20))}
		if own, err = own.Extend([]model.Object{birth}); err != nil {
			b.Fatal(err)
		}
	}
}
