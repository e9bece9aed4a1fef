// The router's read-path deduplication: the in-flight query coalescer
// and the invalidation-aware result cache, one structure under one
// mutex.
//
// Both layers key on the same canonical query signature — a hash of
// the query's sorted object ID set, nothing else. Cost, tolerance, and
// the virtual clock deliberately stay out of the key: the workload
// generators (and real survey clients) randomize per-query cost and
// staleness around the same hot region, and the answer the router
// assembles — which shards hold which fragments, the merged payload —
// depends only on which objects the query touches. Region queries
// resolve to object lists through the cover cache before they get
// here, so one keying covers both query forms; a birth that changes a
// region's cover changes the resolved list and therefore the
// signature, and the stale entry simply stops being addressed.
//
// Correctness edges (the reason this lives behind the repository's
// invalidation stream, which feeds Invalidate and SetOff):
//
//   - An update to any member object evicts every cached result whose
//     ID set contains it, eagerly, and poisons any in-flight scatter
//     touching it: the poisoned flight's result is neither inserted
//     into the cache nor shared with followers (a follower may have
//     joined after the invalidation arrived), so each follower falls
//     back to its own scatter. An inverted index object → resident
//     entries finds the matches, so a notice costs what it evicts, not
//     the cache size (see index below).
//   - Resize epoch flips clear the cache wholesale and poison every
//     flight — routing changed under them. Birth adoption does neither:
//     the epoch is the same, no existing object moves, an entry's ID
//     set still names exactly the objects its payload was merged from,
//     and a region whose cover gained the newborn resolves to a new ID
//     set and so to a new signature.
//   - Degraded or failed leader results are never shared with
//     followers and never cached; each follower falls back to its own
//     scatter.
//   - Between a gap in the invalidation stream and its resume the cache
//     fails closed (SetOff): wiped, neither serving nor admitting.
//
// The cached value V is the caller's merged answer. The cache only
// stores and copies it and calls no method through it; a caller that
// hands one V to several clients holds it read-only.

package core

import (
	"container/list"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/deltacache/delta/internal/model"
)

// DefaultResultCacheSize bounds a result cache built with a size that
// is not positive. Entries hold merged result payloads, so the bound is
// entry-count, not bytes; 1024 covers the hot set of every
// trace-realistic scenario while staying far under the shards' own
// capacity.
const DefaultResultCacheSize = 1024

// sigSeed keys the signature hash for the process lifetime: signatures
// never cross the wire, so they need no cross-process stability.
var sigSeed = maphash.MakeSeed()

// querySignature canonicalizes a query's object set: the IDs sorted
// (callers may list them in any order) and hashed. The sorted set is
// returned too — entries keep it both to verify a hash hit against
// collisions and to answer "does this result contain object X" during
// invalidation scans.
func querySignature(objects []model.ObjectID) (uint64, []model.ObjectID) {
	ids := slices.Clone(objects)
	slices.Sort(ids)
	var h maphash.Hash
	h.SetSeed(sigSeed)
	var buf [8]byte
	for _, id := range ids {
		v := uint64(id)
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64(), ids
}

// Flight is one in-flight leader scatter that identical concurrent
// queries coalesce onto. The leader closes done (Complete) after
// setting res and shared; followers block on done (Wait). A poisoned
// flight (an invalidation or routing change arrived mid-scatter)
// neither enters the cache nor shares its result — its followers fall
// back to their own scatters.
type Flight[V any] struct {
	sig      uint64
	ids      []model.ObjectID // sorted member set, for invalidation scans
	done     chan struct{}
	res      V    // valid only when shared
	shared   bool // leader succeeded undegraded
	poisoned bool // guarded by the owning cache's mu
}

// cacheEntry is one cached merged result, addressed by signature and
// held on the LRU list.
type cacheEntry[V any] struct {
	sig uint64
	ids []model.ObjectID // sorted member set
	res V
	elt *list.Element
	// Where Invalidate finds the entry: posts heads the chain (through
	// posting.sib) of its arena postings and wideAt is -1, or — for an
	// entry kept off the index — wideAt is its slot in ResultCache.wide.
	posts  int32
	wideAt int
}

// wideEntry is the member count above which an entry stays off the
// inverted index. Trace queries name a handful of objects (p50 4, p95
// 10) but the tail is sky-wide (max ≈ 2,400); linking and unlinking
// thousands of postings under mu on insert and again on LRU eviction
// costs every concurrent query tens of µs, while one binary search per
// such entry per notice costs nanoseconds — and there are few of them.
const wideEntry = 64

// posting records that entry e contains the object at universe position
// pos. It sits on two chains, both threaded through arena indices (0 is
// nil): the object's doubly-linked list of resident entries (prev,
// next; ResultCache.heads[pos] is its head) and the entry's own list of
// postings (sib), which removal walks.
type posting[V any] struct {
	e               *cacheEntry[V]
	pos             int32
	prev, next, sib int32
}

// ResultCache is the router's combined singleflight + LRU result cache
// over values of type V. All methods are nil-receiver safe no-ops, so a
// router with the cache disabled costs nothing on the query path.
type ResultCache[V any] struct {
	mu      sync.Mutex
	size    int
	entries map[uint64]*cacheEntry[V]
	lru     *list.List // front = most recent; values are *cacheEntry[V]
	flights map[uint64]*Flight[V]
	// off is set between a stream gap and its resume (SetOff): the cache
	// neither serves nor admits.
	off bool

	// The inverted index object → resident entries. pos maps an object
	// to its universe position (Ownership.Pos: stable for the router's
	// life, since births append and resizes keep the universe order),
	// which indexes heads directly — no map write per member on the
	// miss path. Postings live in one arena recycled through a free
	// chain (posting.next), so steady-state upkeep allocates nothing.
	// Entries wider than wideEntry, or naming an object pos does not
	// know, sit on wide instead and are binary-searched per notice.
	pos   func(model.ObjectID) (int, bool)
	heads []int32
	arena []posting[V]
	free  int32
	wide  []*cacheEntry[V]

	hits          atomic.Int64
	misses        atomic.Int64
	coalesced     atomic.Int64
	invalidations atomic.Int64
}

// NewResultCache builds a cache of size entries (DefaultResultCacheSize
// when size is not positive); pos is the router's Ownership.Pos.
func NewResultCache[V any](size int, pos func(model.ObjectID) (int, bool)) *ResultCache[V] {
	if size <= 0 {
		size = DefaultResultCacheSize
	}
	return &ResultCache[V]{
		size:    size,
		entries: make(map[uint64]*cacheEntry[V]),
		lru:     list.New(),
		flights: make(map[uint64]*Flight[V]),
		pos:     pos,
		arena:   make([]posting[V], 1), // slot 0 is the nil posting
	}
}

// Begin is the read-path entry point. It returns exactly one of:
// a cached result (hit), an existing flight to wait on (coalesced
// follower), or a fresh flight the caller now leads (it must call
// Complete exactly once). A hash collision — same signature, different
// ID set — is treated as a miss that does not coalesce or cache, so a
// collision can only cost performance, never correctness.
func (c *ResultCache[V]) Begin(objects []model.ObjectID) (cached *V, f *Flight[V], leader bool) {
	if c == nil {
		return nil, nil, false
	}
	sig, ids := querySignature(objects)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.off {
		return nil, nil, false
	}
	if e, ok := c.entries[sig]; ok {
		if slices.Equal(e.ids, ids) {
			c.lru.MoveToFront(e.elt)
			c.hits.Add(1)
			res := e.res
			return &res, nil, false
		}
		// Collision: leave the resident entry alone and pass through.
		c.misses.Add(1)
		return nil, nil, false
	}
	c.misses.Add(1)
	if fl, ok := c.flights[sig]; ok {
		if slices.Equal(fl.ids, ids) {
			return nil, fl, false
		}
		return nil, nil, false // collision with an in-flight leader
	}
	fl := &Flight[V]{sig: sig, ids: ids, done: make(chan struct{})}
	c.flights[sig] = fl
	return nil, fl, true
}

// Wait blocks a follower until its flight's leader completes, and
// returns the leader's result, counted as coalesced, or false when it
// is not shareable and the follower must scatter on its own.
func (c *ResultCache[V]) Wait(f *Flight[V]) (V, bool) {
	<-f.done
	if f.shared {
		c.coalesced.Add(1)
	}
	return f.res, f.shared
}

// Complete finishes a led flight: publishes the result to the
// followers, and — when the scatter succeeded undegraded and no
// invalidation poisoned the flight meanwhile — inserts it into the
// LRU. Must be called exactly once per flight Begin returned with
// leader=true.
func (c *ResultCache[V]) Complete(f *Flight[V], res V, ok bool) {
	if c == nil || f == nil {
		return
	}
	c.mu.Lock()
	if c.flights[f.sig] == f {
		delete(c.flights, f.sig)
	}
	f.shared = ok && !f.poisoned
	if f.shared {
		f.res = res
	}
	if ok && !f.poisoned {
		c.insertLocked(f.sig, f.ids, res)
	}
	c.mu.Unlock()
	close(f.done)
}

func (c *ResultCache[V]) insertLocked(sig uint64, ids []model.ObjectID, res V) {
	if e, exists := c.entries[sig]; exists {
		c.removeLocked(e)
	}
	e := &cacheEntry[V]{sig: sig, ids: ids, res: res, wideAt: -1}
	e.elt = c.lru.PushFront(e)
	c.entries[sig] = e
	c.indexLocked(e)
	for c.lru.Len() > c.size {
		oldest := c.lru.Back()
		c.removeLocked(oldest.Value.(*cacheEntry[V]))
	}
}

// indexLocked makes e findable by Invalidate: one posting per distinct
// member (a query may name an object twice; its entry must still be
// evicted once), or a slot on the wide list.
func (c *ResultCache[V]) indexLocked(e *cacheEntry[V]) {
	if len(e.ids) <= wideEntry && c.linkLocked(e) {
		return
	}
	e.wideAt = len(c.wide)
	c.wide = append(c.wide, e)
}

// linkLocked threads a posting for each distinct member onto that
// object's list. At a member pos does not know it undoes the postings
// made so far and reports false.
func (c *ResultCache[V]) linkLocked(e *cacheEntry[V]) bool {
	for i, id := range e.ids {
		if i > 0 && id == e.ids[i-1] {
			continue
		}
		p, ok := c.pos(id)
		if !ok {
			c.unlinkLocked(e)
			return false
		}
		if p >= len(c.heads) {
			c.heads = append(c.heads, make([]int32, p+1-len(c.heads))...)
		}
		at := c.free
		if at != 0 {
			c.free = c.arena[at].next
		} else {
			at = int32(len(c.arena))
			c.arena = append(c.arena, posting[V]{})
		}
		head := c.heads[p]
		c.arena[at] = posting[V]{e: e, pos: int32(p), next: head, sib: e.posts}
		if head != 0 {
			c.arena[head].prev = at
		}
		c.heads[p], e.posts = at, at
	}
	return true
}

// unlinkLocked takes e's postings off their objects' lists and returns
// them to the free chain.
func (c *ResultCache[V]) unlinkLocked(e *cacheEntry[V]) {
	for at := e.posts; at != 0; {
		po := c.arena[at]
		if po.prev != 0 {
			c.arena[po.prev].next = po.next
		} else {
			c.heads[po.pos] = po.next
		}
		if po.next != 0 {
			c.arena[po.next].prev = po.prev
		}
		c.arena[at] = posting[V]{next: c.free}
		c.free = at
		at = po.sib
	}
	e.posts = 0
}

func (c *ResultCache[V]) removeLocked(e *cacheEntry[V]) {
	c.lru.Remove(e.elt)
	delete(c.entries, e.sig)
	if e.wideAt < 0 {
		c.unlinkLocked(e)
		return
	}
	last := len(c.wide) - 1
	c.wide[e.wideAt] = c.wide[last]
	c.wide[e.wideAt].wideAt = e.wideAt
	c.wide[last] = nil
	c.wide = c.wide[:last]
}

// Invalidate evicts every cached result containing the updated object
// and poisons matching in-flight scatters. The object's posting list
// names exactly the indexed residents to evict, so a notice that
// matches nothing — every notice, when updates fall on unqueried sky —
// costs one slice load plus a binary search per wide entry and per
// flight, both few; it runs under the mutex Begin needs, beside every
// read.
func (c *ResultCache[V]) Invalidate(id model.ObjectID) {
	if c == nil {
		return
	}
	p, known := c.pos(id)
	c.mu.Lock()
	evicted := 0
	if known && p < len(c.heads) {
		for at := c.heads[p]; at != 0; evicted++ {
			po := c.arena[at]
			at = po.next // e has one posting per object: never po.e's own
			c.removeLocked(po.e)
		}
	}
	for i := 0; i < len(c.wide); {
		if e := c.wide[i]; contains(e.ids, id) {
			c.removeLocked(e) // swaps the list's last entry into slot i
			evicted++
		} else {
			i++
		}
	}
	for _, fl := range c.flights {
		if contains(fl.ids, id) {
			fl.poisoned = true
		}
	}
	if evicted > 0 {
		c.invalidations.Add(int64(evicted))
	}
	c.mu.Unlock()
}

func contains(sorted []model.ObjectID, id model.ObjectID) bool {
	_, found := slices.BinarySearch(sorted, id)
	return found
}

// Clear wipes the cache wholesale and poisons every in-flight scatter
// — the response to resize epoch flips, where routing itself changed
// under any result in motion.
func (c *ResultCache[V]) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.clearLocked()
	c.mu.Unlock()
}

func (c *ResultCache[V]) clearLocked() {
	c.invalidations.Add(int64(len(c.entries)))
	clear(c.entries)
	c.lru.Init()
	clear(c.heads)
	clear(c.arena)
	c.arena, c.free = c.arena[:1], 0
	clear(c.wide)
	c.wide = c.wide[:0]
	for _, fl := range c.flights {
		fl.poisoned = true
	}
}

// SetOff is the response to a gap in the invalidation stream (off) and
// to its resume (on). Either way the cache is wiped and every flight
// poisoned: no entry heard the notices the gap hid, and a scatter that
// read a shard before one of them must never be admitted. While off,
// every Begin passes through to a scatter.
func (c *ResultCache[V]) SetOff(off bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.off = off
	c.clearLocked()
	c.mu.Unlock()
}

// Len reports the resident entry count (tests and debug).
func (c *ResultCache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *ResultCache[V]) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

func (c *ResultCache[V]) Misses() int64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

func (c *ResultCache[V]) Coalesced() int64 {
	if c == nil {
		return 0
	}
	return c.coalesced.Load()
}

func (c *ResultCache[V]) Invalidations() int64 {
	if c == nil {
		return 0
	}
	return c.invalidations.Load()
}
