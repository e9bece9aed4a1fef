// Router-tier read-path deduplication: the in-flight query coalescer
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
// invalidation stream, and is disabled without one):
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
//     fails closed (setOff): wiped, neither serving nor admitting.
//
// Sharing respects the v3 frame ownership contract: the cached value
// is the router's merged QueryResultMsg, whose Payload/Rows/Spans
// slices the router itself assembled (never a pooled or per-connection
// scratch buffer), held read-only and re-stamped per client at serve
// time (fresh QueryID, cost-share Logical, trace spans).
package cluster

import (
	"container/list"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// DefaultResultCacheSize bounds the router's result cache when
// Config.ResultCacheSize is zero. Entries hold merged result payloads
// (each capped at netproto.MaxFrame/2), so the bound is entry-count,
// not bytes; 1024 covers the hot set of every trace-realistic scenario
// while staying far under the shards' own capacity.
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

// flight is one in-flight leader scatter that identical concurrent
// queries coalesce onto. The leader closes done after setting res and
// shared; followers block on done. A poisoned flight (an invalidation
// or routing change arrived mid-scatter) neither enters the cache nor
// shares its result — its followers fall back to their own scatters.
type flight struct {
	sig      uint64
	ids      []model.ObjectID // sorted member set, for invalidation scans
	done     chan struct{}
	res      netproto.QueryResultMsg // valid only when shared
	shared   bool                    // leader succeeded undegraded
	poisoned bool                    // guarded by the owning cache's mu
}

// cacheEntry is one cached merged result, addressed by signature and
// held on the LRU list.
type cacheEntry struct {
	sig uint64
	ids []model.ObjectID // sorted member set
	res netproto.QueryResultMsg
	elt *list.Element
	// Where invalidate finds the entry: posts heads the chain (through
	// posting.sib) of its arena postings and wideAt is -1, or — for an
	// entry kept off the index — wideAt is its slot in resultCache.wide.
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
// next; resultCache.heads[pos] is its head) and the entry's own list of
// postings (sib), which removal walks.
type posting struct {
	e               *cacheEntry
	pos             int32
	prev, next, sib int32
}

// resultCache is the router's combined singleflight + LRU result
// cache. All methods are nil-receiver safe no-ops so an unconfigured
// router (no repository, hence no invalidation stream) costs nothing
// on the query path.
type resultCache struct {
	mu      sync.Mutex
	size    int
	entries map[uint64]*cacheEntry
	lru     *list.List // front = most recent; values are *cacheEntry
	flights map[uint64]*flight
	// off is set between a stream gap and its resume (setOff): the cache
	// neither serves nor admits.
	off bool

	// The inverted index object → resident entries. pos maps an object
	// to its universe position (Ownership.pos: stable for the router's
	// life, since births append and resizes keep the universe order),
	// which indexes heads directly — no map write per member on the
	// miss path. Postings live in one arena recycled through a free
	// chain (posting.next), so steady-state upkeep allocates nothing.
	// Entries wider than wideEntry, or naming an object pos does not
	// know, sit on wide instead and are binary-searched per notice.
	pos   func(model.ObjectID) (int, bool)
	heads []int32
	arena []posting
	free  int32
	wide  []*cacheEntry

	hits          atomic.Int64
	misses        atomic.Int64
	coalesced     atomic.Int64
	invalidations atomic.Int64
}

func newResultCache(size int, pos func(model.ObjectID) (int, bool)) *resultCache {
	if size <= 0 {
		size = DefaultResultCacheSize
	}
	return &resultCache{
		size:    size,
		entries: make(map[uint64]*cacheEntry),
		lru:     list.New(),
		flights: make(map[uint64]*flight),
		pos:     pos,
		arena:   make([]posting, 1), // slot 0 is the nil posting
	}
}

// begin is the read-path entry point. It returns exactly one of:
// a cached result (hit), an existing flight to wait on (coalesced
// follower), or a fresh flight the caller now leads (it must call
// complete exactly once). A hash collision — same signature, different
// ID set — is treated as a miss that does not coalesce or cache, so a
// collision can only cost performance, never correctness.
func (c *resultCache) begin(objects []model.ObjectID) (cached *netproto.QueryResultMsg, f *flight, leader bool) {
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
	fl := &flight{sig: sig, ids: ids, done: make(chan struct{})}
	c.flights[sig] = fl
	return nil, fl, true
}

// complete finishes a led flight: publishes the result to the
// followers, and — when the scatter succeeded undegraded and no
// invalidation poisoned the flight meanwhile — inserts it into the
// LRU. Must be called exactly once per flight begin returned with
// leader=true.
func (c *resultCache) complete(f *flight, res netproto.QueryResultMsg, ok bool) {
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

func (c *resultCache) insertLocked(sig uint64, ids []model.ObjectID, res netproto.QueryResultMsg) {
	if e, exists := c.entries[sig]; exists {
		c.removeLocked(e)
	}
	e := &cacheEntry{sig: sig, ids: ids, res: res, wideAt: -1}
	e.elt = c.lru.PushFront(e)
	c.entries[sig] = e
	c.indexLocked(e)
	for c.lru.Len() > c.size {
		oldest := c.lru.Back()
		c.removeLocked(oldest.Value.(*cacheEntry))
	}
}

// indexLocked makes e findable by invalidate: one posting per distinct
// member (a query may name an object twice; its entry must still be
// evicted once), or a slot on the wide list.
func (c *resultCache) indexLocked(e *cacheEntry) {
	if len(e.ids) <= wideEntry && c.linkLocked(e) {
		return
	}
	e.wideAt = len(c.wide)
	c.wide = append(c.wide, e)
}

// linkLocked threads a posting for each distinct member onto that
// object's list. At a member pos does not know it undoes the postings
// made so far and reports false.
func (c *resultCache) linkLocked(e *cacheEntry) bool {
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
			c.arena = append(c.arena, posting{})
		}
		head := c.heads[p]
		c.arena[at] = posting{e: e, pos: int32(p), next: head, sib: e.posts}
		if head != 0 {
			c.arena[head].prev = at
		}
		c.heads[p], e.posts = at, at
	}
	return true
}

// unlinkLocked takes e's postings off their objects' lists and returns
// them to the free chain.
func (c *resultCache) unlinkLocked(e *cacheEntry) {
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
		c.arena[at] = posting{next: c.free}
		c.free = at
		at = po.sib
	}
	e.posts = 0
}

func (c *resultCache) removeLocked(e *cacheEntry) {
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

// invalidate evicts every cached result containing the updated object
// and poisons matching in-flight scatters. The object's posting list
// names exactly the indexed residents to evict, so a notice that
// matches nothing — every notice, when updates fall on unqueried sky —
// costs one slice load plus a binary search per wide entry and per
// flight, both few; it runs under the mutex begin needs, beside every
// read.
func (c *resultCache) invalidate(id model.ObjectID) {
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

// clear wipes the cache wholesale and poisons every in-flight scatter
// — the response to resize epoch flips, where routing itself changed
// under any result in motion.
func (c *resultCache) clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.clearLocked()
	c.mu.Unlock()
}

func (c *resultCache) clearLocked() {
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

// setOff is the response to a gap in the invalidation stream (off) and
// to its resume (on). Either way the cache is wiped and every flight
// poisoned: no entry heard the notices the gap hid, and a scatter that
// read a shard before one of them must never be admitted. While off,
// every begin passes through to a scatter.
func (c *resultCache) setOff(off bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.off = off
	c.clearLocked()
	c.mu.Unlock()
}

// Len reports the resident entry count (tests and debug).
func (c *resultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *resultCache) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

func (c *resultCache) Misses() int64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

func (c *resultCache) Coalesced() int64 {
	if c == nil {
		return 0
	}
	return c.coalesced.Load()
}

func (c *resultCache) Invalidations() int64 {
	if c == nil {
		return 0
	}
	return c.invalidations.Load()
}
