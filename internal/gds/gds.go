// Package gds implements the Greedy-Dual-Size web-caching algorithm of
// Cao and Irani (USITS 1997) and its frequency-aware variant GDSF, plus
// the lazy batched admission mode VCover's LoadManager relies on
// (Section 4 of the paper, "we use a lazy version of Aobj").
//
// Greedy-Dual-Size keeps a credit H for every cached object. When an
// object is requested it receives H = L + cost/size (GDSF additionally
// multiplies by the object's hit count), where L is an inflation value
// equal to the credit of the last evicted object. Eviction removes the
// minimum-H object, so objects fall out of the cache once their credit
// is overtaken by the inflation level — a smooth blend of recency,
// frequency, fetch cost and size.
package gds

import (
	"container/heap"
	"fmt"
	"sort"
)

// Entry describes an admission candidate.
type Entry struct {
	// Key identifies the object.
	Key int64
	// Size is the object's size; the cache charges Size units of
	// capacity for it.
	Size int64
	// Cost is the cost of fetching the object on a miss (for Delta, the
	// object's load cost).
	Cost int64
}

// Cache is a Greedy-Dual-Size cache over abstract objects. It tracks
// only metadata: the caller moves actual data. Cache is not safe for
// concurrent use.
type Cache struct {
	capacity int64
	used     int64
	inflate  float64 // the running L value
	gdsf     bool

	entries entryIndex
	// order is a min-heap of the entries on (heapH, key). An entry's
	// credit only ever rises after it is admitted (inflate never falls
	// and freq only grows), so Touch leaves the heap alone and heapH
	// may lag below h; minCredit repairs the root until it is current.
	order creditHeap
}

// denseSlack bounds how far past the dense range a key may land and
// still grow it, as core's object tables do: object IDs are sequential,
// so the range grows in small steps, while a key far outside it (or
// below 1) goes to the overflow map instead of forcing a huge slice.
const denseSlack = 65536

// entryIndex maps keys to cached entries. Keys 1..len(dense) live in a
// slice indexed by key−1 (nil marks absence) — a hit's Touch is then an
// array load, not a map lookup — and every other key in sparse, which
// holds only keys outside the dense range. The heap counts the entries.
type entryIndex struct {
	dense  []*entry
	sparse map[int64]*entry
}

func (x *entryIndex) get(key int64) *entry {
	if i := key - 1; i >= 0 && i < int64(len(x.dense)) {
		return x.dense[i]
	}
	return x.sparse[key]
}

// put inserts e, whose key must be absent.
func (x *entryIndex) put(e *entry) {
	i := e.key - 1
	if i >= int64(len(x.dense)) && i < int64(len(x.dense))+denseSlack {
		x.dense = append(x.dense, make([]*entry, int(i)+1-len(x.dense))...)
		for k, s := range x.sparse {
			if k-1 >= 0 && k-1 < int64(len(x.dense)) {
				x.dense[k-1] = s
				delete(x.sparse, k)
			}
		}
	}
	if i >= 0 && i < int64(len(x.dense)) {
		x.dense[i] = e
		return
	}
	if x.sparse == nil {
		x.sparse = make(map[int64]*entry)
	}
	x.sparse[e.key] = e
}

// remove drops key, which must be present.
func (x *entryIndex) remove(key int64) {
	if i := key - 1; i >= 0 && i < int64(len(x.dense)) {
		x.dense[i] = nil
		return
	}
	delete(x.sparse, key)
}

type entry struct {
	key        int64
	size, cost int64
	h          float64
	freq       int64
	heapH      float64 // h as order last saw it; never above h
	pos        int     // index in order
}

// creditHeap implements heap.Interface over entries, smallest
// (heapH, key) first.
type creditHeap []*entry

func (o creditHeap) Len() int { return len(o) }
func (o creditHeap) Less(i, j int) bool {
	return o[i].heapH < o[j].heapH || (o[i].heapH == o[j].heapH && o[i].key < o[j].key)
}
func (o creditHeap) Swap(i, j int) {
	o[i], o[j] = o[j], o[i]
	o[i].pos, o[j].pos = i, j
}
func (o *creditHeap) Push(x any) {
	e := x.(*entry)
	e.pos = len(*o)
	*o = append(*o, e)
}
func (o *creditHeap) Pop() any {
	old := *o
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*o = old[:len(old)-1]
	return e
}

// New returns an empty cache with the given capacity. If gdsf is true
// the frequency-aware GDSF credit function is used.
func New(capacity int64, gdsf bool) (*Cache, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("gds: negative capacity %d", capacity)
	}
	return &Cache{
		capacity: capacity,
		gdsf:     gdsf,
	}, nil
}

// Capacity returns the configured capacity.
func (c *Cache) Capacity() int64 { return c.capacity }

// Used returns the capacity currently consumed.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of cached objects.
func (c *Cache) Len() int { return len(c.order) }

// Contains reports whether the key is cached.
func (c *Cache) Contains(key int64) bool { return c.entries.get(key) != nil }

// Keys returns the cached keys in ascending order.
func (c *Cache) Keys() []int64 {
	out := make([]int64, 0, len(c.order))
	for _, e := range c.order {
		out = append(out, e.key)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Credit returns the current H value of a cached key (0, false if
// absent). Exposed for tests and introspection.
func (c *Cache) Credit(key int64) (float64, bool) {
	e := c.entries.get(key)
	if e == nil {
		return 0, false
	}
	return e.h, true
}

func (c *Cache) credit(e *entry) float64 {
	if e.size <= 0 {
		return c.inflate + float64(e.cost)
	}
	ratio := float64(e.cost) / float64(e.size)
	if c.gdsf {
		return c.inflate + float64(e.freq)*ratio
	}
	return c.inflate + ratio
}

// Touch records a hit on a cached object, refreshing its credit. It is
// a no-op for absent keys.
func (c *Cache) Touch(key int64) {
	e := c.entries.get(key)
	if e == nil {
		return
	}
	e.freq++
	e.h = c.credit(e)
}

// Remove evicts the key unconditionally (e.g. the simulator invalidated
// it). It is a no-op for absent keys.
func (c *Cache) Remove(key int64) {
	e := c.entries.get(key)
	if e == nil {
		return
	}
	c.evict(e)
}

// evict drops a cached entry from the map, the heap and the books.
func (c *Cache) evict(e *entry) {
	c.used -= e.size
	c.entries.remove(e.key)
	heap.Remove(&c.order, e.pos)
}

// Resize sets the capacity, evicting minimum-credit objects until the
// contents fit, and returns the evicted keys in eviction order.
func (c *Cache) Resize(capacity int64) ([]int64, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("gds: negative capacity %d", capacity)
	}
	c.capacity = capacity
	return c.shrinkTo(capacity), nil
}

// shrinkTo evicts minimum-credit objects until at most limit is used
// or nothing is left, and returns the evicted keys in order. The
// inflation level rises to each evicted credit: this is the "aging"
// that lets stale high-cost objects eventually leave.
func (c *Cache) shrinkTo(limit int64) (evicted []int64) {
	for c.used > limit {
		victim := c.minCredit()
		if victim == nil {
			break
		}
		c.inflate = victim.h
		c.evict(victim)
		evicted = append(evicted, victim.key)
	}
	return evicted
}

// Admit inserts the candidate, evicting minimum-credit objects until it
// fits. It returns the evicted keys and whether the candidate was
// admitted. Candidates larger than the whole cache are rejected without
// disturbing current contents. Admitting a cached key refreshes it
// (Touch) and evicts nothing.
func (c *Cache) Admit(cand Entry) (evicted []int64, admitted bool) {
	if cand.Size > c.capacity || cand.Size < 0 || cand.Cost < 0 {
		return nil, false
	}
	if c.Contains(cand.Key) {
		c.Touch(cand.Key)
		return nil, true
	}
	evicted = c.shrinkTo(c.capacity - cand.Size)
	e := &entry{key: cand.Key, size: cand.Size, cost: cand.Cost, freq: 1}
	e.h = c.credit(e)
	e.heapH = e.h
	c.entries.put(e)
	heap.Push(&c.order, e)
	c.used += cand.Size
	return evicted, true
}

// BatchResult reports the net effect of a lazy batched admission.
type BatchResult struct {
	// Load holds candidate keys that should actually be loaded: they
	// were admitted and survived the whole batch.
	Load []int64
	// Evict holds previously-cached keys that must be evicted to make
	// room. Keys admitted and evicted within the same batch appear in
	// neither list — that is the laziness: such objects are never
	// physically loaded (Section 4: "loading oi is not useful").
	Evict []int64
}

// AdmitBatch processes the candidates of one query in order with the
// lazy semantics of the paper's LoadManager: credits and inflation are
// updated exactly as sequential Admit calls would, but objects that a
// later candidate of the same batch would displace are elided from the
// physical load plan.
func (c *Cache) AdmitBatch(cands []Entry) BatchResult {
	newly := make(map[int64]bool, len(cands))
	evictedOld := make(map[int64]bool)
	for _, cand := range cands {
		wasPresent := c.Contains(cand.Key)
		evicted, admitted := c.Admit(cand)
		for _, v := range evicted {
			if newly[v] {
				delete(newly, v) // loaded and dropped within the batch: elide
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
	sort.Slice(res.Load, func(i, j int) bool { return res.Load[i] < res.Load[j] })
	sort.Slice(res.Evict, func(i, j int) bool { return res.Evict[i] < res.Evict[j] })
	return res
}

// minCredit returns the entry with the smallest credit, ties broken by
// smaller key for determinism; nil when the cache is empty. While the
// root's heapH lags its credit the root is brought current and sifted
// down; a root that is current is the minimum, because every other
// entry's credit is at least its heapH.
func (c *Cache) minCredit() *entry {
	for len(c.order) > 0 {
		top := c.order[0]
		if top.heapH == top.h {
			return top
		}
		top.heapH = top.h
		heap.Fix(&c.order, 0)
	}
	return nil
}
