package htm

import (
	"container/list"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
)

// CoverCache is a node's region resolver: it owns the function that
// maps a sky cap to object IDs and the one that feeds births into that
// function's universe, and memoizes resolutions behind a small bounded
// LRU. Repeated sky-region queries (the same survey field polled by
// many clients, a dashboard refreshing one region) would otherwise
// recompute partition.Cover per request; the cache answers them with
// one map lookup.
//
// Keys quantize the cap (center vector and cos-radius at ~1e-7): caps
// within a quantum share an entry. Covers are conservative
// may-intersect sets and the quantum is orders of magnitude below any
// partition trixel's angular size, so sharing is harmless in practice;
// callers needing exact boundary behavior should bypass the cache.
//
// The cache is safe for concurrent use and generation-aware: Grow
// invalidates every entry (a grown universe changes covers), without
// reallocating the table. A nil *CoverCache is a node with no resolver:
// it refuses region queries, grows nothing and counts nothing.
type CoverCache struct {
	resolve func(geom.Cap) []model.ObjectID
	grow    func([]model.Birth) error

	mu      sync.Mutex
	cap     int
	entries map[coverKey]*list.Element
	order   *list.List // front = most recently used

	gen    atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

// coverKey is the quantized cap identity.
type coverKey struct {
	x, y, z int64
	cosR    int64
}

type coverEntry struct {
	key coverKey
	gen int64
	ids []model.ObjectID
}

const coverQuantum = 1e7 // quantization steps per unit

func quantizeCap(c geom.Cap) coverKey {
	return coverKey{
		x:    int64(math.Round(c.Center.X * coverQuantum)),
		y:    int64(math.Round(c.Center.Y * coverQuantum)),
		z:    int64(math.Round(c.Center.Z * coverQuantum)),
		cosR: int64(math.Round(c.CosRadius * coverQuantum)),
	}
}

// NewCoverCache returns a cache holding at most capacity entries
// (minimum 1; a typical router uses a few hundred) over resolve, which
// computes a cover on a miss. grow extends resolve's universe with
// adopted births (typically wrapping catalog.Survey.AddObject on the
// survey behind resolve); nil grows nothing. A nil resolve returns a
// nil cache: the node has no region resolver.
func NewCoverCache(capacity int, resolve func(geom.Cap) []model.ObjectID, grow func([]model.Birth) error) *CoverCache {
	if resolve == nil {
		return nil
	}
	if capacity < 1 {
		capacity = 1
	}
	return &CoverCache{
		resolve: resolve,
		grow:    grow,
		cap:     capacity,
		entries: make(map[coverKey]*list.Element, capacity),
		order:   list.New(),
	}
}

// Region resolves a client's sky region (center and radius in degrees)
// to B(q), with the trace-span detail saying whether the cover was
// memoized. A region covering no objects is an error, and so is every
// region on a nil cache.
func (cc *CoverCache) Region(ra, dec, radiusDeg float64) ([]model.ObjectID, string, error) {
	if cc == nil {
		return nil, "", fmt.Errorf("node has no region resolver; send explicit object lists")
	}
	ids, hit := cc.Resolve(geom.CapFromRADec(ra, dec, radiusDeg))
	if len(ids) == 0 {
		return nil, "", fmt.Errorf("region (%v, %v, r=%v°) covers no objects", ra, dec, radiusDeg)
	}
	if hit {
		return ids, "cover-cache=hit", nil
	}
	return ids, "cover-cache=miss", nil
}

// Resolve returns the cover for c, computing it on a miss and
// memoizing the result, plus whether it came from the cache — the
// per-query signal a trace span records (the lifetime counters in
// Stats can't attribute a hit to one query under concurrency). The
// returned slice is shared across callers and must not be mutated.
func (cc *CoverCache) Resolve(c geom.Cap) ([]model.ObjectID, bool) {
	key := quantizeCap(c)
	gen := cc.gen.Load()
	cc.mu.Lock()
	if el, ok := cc.entries[key]; ok {
		ent := el.Value.(*coverEntry)
		if ent.gen == gen {
			cc.order.MoveToFront(el)
			cc.mu.Unlock()
			cc.hits.Add(1)
			return ent.ids, true
		}
		// Stale generation: treat as a miss and recompute below.
		cc.order.Remove(el)
		delete(cc.entries, key)
	}
	cc.mu.Unlock()

	cc.misses.Add(1)
	ids := cc.resolve(c)

	cc.mu.Lock()
	defer cc.mu.Unlock()
	if el, ok := cc.entries[key]; ok {
		// A concurrent resolver beat us; keep its entry.
		cc.order.MoveToFront(el)
		return ids, false
	}
	for cc.order.Len() >= cc.cap {
		oldest := cc.order.Back()
		cc.order.Remove(oldest)
		delete(cc.entries, oldest.Value.(*coverEntry).key)
	}
	cc.entries[key] = cc.order.PushFront(&coverEntry{key: key, gen: gen, ids: ids})
	return ids, false
}

// Grow extends the resolver's universe with births, then invalidates
// every cached cover: a newborn can join any region's cover, and growing
// first keeps a concurrent recompute against the pre-growth resolver
// from re-memoizing its absence. The invalidation happens even when
// growing fails.
func (cc *CoverCache) Grow(births []model.Birth) error {
	if cc == nil {
		return nil
	}
	var err error
	if cc.grow != nil {
		err = cc.grow(births)
	}
	cc.gen.Add(1)
	return err
}

// Stats reports lifetime hit and miss counts.
func (cc *CoverCache) Stats() (hits, misses int64) {
	if cc == nil {
		return 0, 0
	}
	return cc.hits.Load(), cc.misses.Load()
}
