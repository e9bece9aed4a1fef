package htm

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
)

// Universe is what a node resolves sky regions against and grows with
// adopted births: catalog.Survey, which imports this package.
type Universe interface {
	// CoverCap maps a sky cap to the IDs of the objects it may touch.
	CoverCap(geom.Cap) []model.ObjectID
	// NextID is the ID the next born object must carry.
	NextID() model.ObjectID
	// AddObject ingests the birth whose ID is NextID.
	AddObject(model.Birth) error
}

// CoverCache is a node's region resolver: it resolves sky caps against
// its Universe, grows that universe with adopted births, and memoizes
// resolutions behind a small bounded LRU. Repeated sky-region queries
// (the same survey field polled by many clients, a dashboard
// refreshing one region) would otherwise recompute partition.Cover per
// request; the cache answers them with one map lookup.
//
// Keys quantize the cap (center vector and cos-radius at ~1e-7): caps
// within a quantum share an entry. Covers are conservative
// may-intersect sets and the quantum is orders of magnitude below any
// partition trixel's angular size, so sharing is harmless in practice;
// callers needing exact boundary behavior should bypass the cache.
//
// The cache is safe for concurrent use and generation-aware: Grow
// invalidates every entry (a grown universe changes covers), without
// reallocating the table. A nil *CoverCache is a node with no region
// source: it refuses region queries, grows nothing and counts nothing.
type CoverCache struct {
	u Universe

	growMu sync.Mutex
	held   map[model.ObjectID]model.Birth // births above u.NextID()

	mu      sync.Mutex
	entries map[coverKey]*list.Element
	order   *list.List // front = most recently used

	gen    atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

const (
	// coverCacheSize is how many covers a node memoizes.
	coverCacheSize = 256
	// maxHeldBirths bounds the births Grow holds while it waits for a
	// lower ID to arrive.
	maxHeldBirths = 1024
)

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

// NewCoverCache returns an empty cache resolving against u.
func NewCoverCache(u Universe) *CoverCache {
	return &CoverCache{
		u:       u,
		held:    make(map[model.ObjectID]model.Birth),
		entries: make(map[coverKey]*list.Element, coverCacheSize),
		order:   list.New(),
	}
}

// Region resolves a client's sky region (center and radius in degrees)
// to B(q), with the trace-span detail saying whether the cover was
// memoized. A region covering no objects is an error, and so is every
// region on a nil cache.
func (cc *CoverCache) Region(ra, dec, radiusDeg float64) ([]model.ObjectID, string, error) {
	if cc == nil {
		return nil, "", fmt.Errorf("node has no region source; send explicit object lists")
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
	ids := cc.u.CoverCap(c)

	cc.mu.Lock()
	defer cc.mu.Unlock()
	if el, ok := cc.entries[key]; ok {
		// A concurrent resolver beat us; keep its entry.
		cc.order.MoveToFront(el)
		return ids, false
	}
	for cc.order.Len() >= coverCacheSize {
		oldest := cc.order.Back()
		cc.order.Remove(oldest)
		delete(cc.entries, oldest.Value.(*coverEntry).key)
	}
	cc.entries[key] = cc.order.PushFront(&coverEntry{key: key, gen: gen, ids: ids})
	return ids, false
}

// Grow adds births to the universe in ID order, then invalidates every
// cached cover: a newborn can join any region's cover, and growing
// first keeps a concurrent recompute against the pre-growth universe
// from re-memoizing its absence. Adoption follows arrival order, not
// ID order, so births the universe already holds are skipped and a
// birth above NextID is held until the gap below it fills. Holding is
// bounded by maxHeldBirths (the birth at NextID is always taken); a
// birth refused for that reason, or one the universe rejects, is
// reported in the error, and the rest still grow. The invalidation
// happens even when growing fails.
func (cc *CoverCache) Grow(births []model.Birth) error {
	if cc == nil {
		return nil
	}
	defer cc.gen.Add(1)
	cc.growMu.Lock()
	defer cc.growMu.Unlock()
	next := cc.u.NextID()
	var errs []error
	for _, b := range births {
		switch id := b.Object.ID; {
		case id < next:
		case len(cc.held) >= maxHeldBirths && id != next:
			errs = append(errs, fmt.Errorf("dropped birth %d: %d births already wait for %d", id, len(cc.held), next))
		default:
			cc.held[id] = b
		}
	}
	for {
		b, ok := cc.held[next]
		if !ok {
			break
		}
		delete(cc.held, next)
		if err := cc.u.AddObject(b); err != nil {
			errs = append(errs, err)
			break
		}
		next = cc.u.NextID()
	}
	return errors.Join(errs...)
}

// Stats reports lifetime hit and miss counts.
func (cc *CoverCache) Stats() (hits, misses int64) {
	if cc == nil {
		return 0, 0
	}
	return cc.hits.Load(), cc.misses.Load()
}
