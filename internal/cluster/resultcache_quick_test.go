package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// scanCache is the oracle for the inverted index: the result cache as
// it was before the index existed — residents in LRU order, every
// notice a linear walk with a binary search per resident.
type scanCache struct {
	size          int
	lru           []scanEntry // front = most recent
	invalidations int64
}

type scanEntry struct {
	sig uint64
	ids []model.ObjectID
}

func (o *scanCache) find(sig uint64) int {
	return slices.IndexFunc(o.lru, func(e scanEntry) bool { return e.sig == sig })
}

// touch is a hit: the resident moves to the LRU front.
func (o *scanCache) touch(i int) {
	e := o.lru[i]
	o.lru = slices.Insert(slices.Delete(o.lru, i, i+1), 0, e)
}

func (o *scanCache) insert(sig uint64, ids []model.ObjectID) {
	if i := o.find(sig); i >= 0 {
		o.lru = slices.Delete(o.lru, i, i+1)
	}
	o.lru = slices.Insert(o.lru, 0, scanEntry{sig, ids})
	if len(o.lru) > o.size {
		o.lru = o.lru[:o.size]
	}
}

func (o *scanCache) invalidate(id model.ObjectID, open []*heldFlight) {
	kept := o.lru[:0]
	for _, e := range o.lru {
		if _, found := slices.BinarySearch(e.ids, id); found {
			o.invalidations++
			continue
		}
		kept = append(kept, e)
	}
	o.lru = kept
	for _, fl := range open {
		if _, found := slices.BinarySearch(fl.real.ids, id); found {
			fl.poisoned = true
		}
	}
}

func (o *scanCache) clear(open []*heldFlight) {
	o.invalidations += int64(len(o.lru))
	o.lru = nil
	for _, fl := range open {
		fl.poisoned = true
	}
}

// heldFlight is a led flight the schedule has not completed yet, with
// the oracle's view of whether a notice or clear poisoned it.
type heldFlight struct {
	real     *flight
	poisoned bool
}

// cacheOp is one step of a random result-cache schedule.
type cacheOp struct {
	Kind uint8  // query / query and hold the flight / complete a held flight / invalidate / clear
	K    uint8  // selects the query's member count
	Seed uint32 // draws the members, or the invalidated object
}

// quickUniverse bounds the IDs a schedule draws; quickKnown of them have
// a universe position, so the rest force an entry onto the wide list.
const (
	quickUniverse = 3000
	quickKnown    = 2950
)

// memberCounts spans both sides of wideEntry, the trace's typical
// handful and its sky-wide tail.
var memberCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, wideEntry, wideEntry + 1, 100, 2500}

// drawQuery draws an op's object list with replacement (so duplicates
// occur), narrow queries from a hot range so that schedules repeat
// sets, share members and get hit by notices.
func drawQuery(op cacheOp) []model.ObjectID {
	rng := rand.New(rand.NewSource(int64(op.Seed)))
	k := memberCounts[int(op.K)%len(memberCounts)]
	span := quickUniverse
	if k <= 8 {
		span = 24
	}
	ids := make([]model.ObjectID, k)
	for i := range ids {
		ids[i] = model.ObjectID(rng.Intn(span) + 1)
	}
	return ids
}

// checkIndex verifies the index's own invariants: every posting sits on
// the list of an object its resident entry names, back-links mirror
// forward links, each indexed resident has exactly one posting per
// distinct member, wide residents hold their slot, and live plus free
// postings account for the whole arena.
func checkIndex(c *resultCache) error {
	live := 0
	for p, head := range c.heads {
		prev := int32(0)
		for at := head; at != 0; at = c.arena[at].next {
			po := c.arena[at]
			if po.prev != prev || int(po.pos) != p {
				return fmt.Errorf("posting %d on object position %d: prev %d pos %d, want prev %d", at, p, po.prev, po.pos, prev)
			}
			if po.e == nil || c.entries[po.e.sig] != po.e {
				return fmt.Errorf("posting %d on object position %d refers to a non-resident entry", at, p)
			}
			if !contains(po.e.ids, model.ObjectID(p+1)) {
				return fmt.Errorf("posting %d: entry %x does not name object %d", at, po.e.sig, p+1)
			}
			live, prev = live+1, at
		}
	}
	want, wide := 0, 0
	for _, e := range c.entries {
		if e.wideAt >= 0 {
			if e.posts != 0 || e.wideAt >= len(c.wide) || c.wide[e.wideAt] != e {
				return fmt.Errorf("wide entry %x: posts %d, slot %d of %d", e.sig, e.posts, e.wideAt, len(c.wide))
			}
			wide++
			continue
		}
		distinct := len(slices.Compact(slices.Clone(e.ids)))
		chain := 0
		for at := e.posts; at != 0; at = c.arena[at].sib {
			if c.arena[at].e != e {
				return fmt.Errorf("entry %x chains posting %d of another entry", e.sig, at)
			}
			chain++
		}
		if chain != distinct {
			return fmt.Errorf("entry %x has %d postings for %d distinct members", e.sig, chain, distinct)
		}
		want += distinct
	}
	if wide != len(c.wide) {
		return fmt.Errorf("wide list holds %d entries, %d residents are wide", len(c.wide), wide)
	}
	if live != want {
		return fmt.Errorf("%d postings on object lists, indexed residents need %d", live, want)
	}
	free := 0
	for at := c.free; at != 0; at = c.arena[at].next {
		free++
	}
	if live+free != len(c.arena)-1 {
		return fmt.Errorf("arena of %d: %d live + %d free postings", len(c.arena)-1, live, free)
	}
	return nil
}

// TestQuickResultCacheIndexMatchesScan drives the indexed cache and the
// linear-scan oracle through the same random schedules of queries (hits,
// misses, flights held open across notices), notices, LRU overflow and
// clears: after every step both hold the same residents in the same LRU
// order, count the same invalidations and agree on which held flights
// are poisoned — and the index has neither a dangling nor a leaked
// posting.
func TestQuickResultCacheIndexMatchesScan(t *testing.T) {
	prop := func(size uint8, ops []cacheOp) bool {
		c := newResultCache(int(size)%12+1, func(id model.ObjectID) (int, bool) {
			return int(id) - 1, id >= 1 && id <= quickKnown
		})
		oracle := &scanCache{size: c.size}
		var open []*heldFlight
		for step, op := range ops {
			switch op.Kind % 8 {
			case 0, 1, 2, 3: // query; kind 3 holds a led flight open
				objs := drawQuery(op)
				sig, ids := querySignature(objs)
				cached, fl, leader := c.begin(objs)
				at := oracle.find(sig)
				if (cached != nil) != (at >= 0) {
					t.Logf("step %d: begin hit=%v, oracle resident=%v", step, cached != nil, at >= 0)
					return false
				}
				switch {
				case cached != nil:
					oracle.touch(at)
				case leader && op.Kind%8 == 3:
					open = append(open, &heldFlight{real: fl})
				case leader:
					c.complete(fl, netproto.QueryResultMsg{}, true)
					oracle.insert(sig, ids)
				}
			case 4: // complete a held flight; one in four failed or degraded
				if len(open) == 0 {
					continue
				}
				i := int(op.Seed) % len(open)
				fl := open[i]
				open = slices.Delete(open, i, i+1)
				ok := op.K%4 != 0
				c.complete(fl.real, netproto.QueryResultMsg{}, ok)
				if ok && !fl.poisoned {
					oracle.insert(fl.real.sig, fl.real.ids)
				}
			case 5, 6: // notice, mostly on the hot range
				span := 24
				if op.K%4 == 0 {
					span = quickUniverse
				}
				id := model.ObjectID(int(op.Seed)%span + 1)
				c.invalidate(id)
				oracle.invalidate(id, open)
			case 7:
				if op.K%4 != 0 { // keep clears rarer than everything else
					continue
				}
				c.clear()
				oracle.clear(open)
			}

			var resident []uint64
			for el := c.lru.Front(); el != nil; el = el.Next() {
				resident = append(resident, el.Value.(*cacheEntry).sig)
			}
			var want []uint64
			for _, e := range oracle.lru {
				want = append(want, e.sig)
			}
			if !slices.Equal(resident, want) || len(c.entries) != len(want) {
				t.Logf("step %d (%+v): residents %x (%d mapped), oracle %x", step, op, resident, len(c.entries), want)
				return false
			}
			if got := c.Invalidations(); got != oracle.invalidations {
				t.Logf("step %d (%+v): %d invalidations, oracle %d", step, op, got, oracle.invalidations)
				return false
			}
			for _, fl := range open {
				if fl.real.poisoned != fl.poisoned {
					t.Logf("step %d (%+v): flight %x poisoned=%v, oracle %v", step, op, fl.real.sig, fl.real.poisoned, fl.poisoned)
					return false
				}
			}
			if err := checkIndex(c); err != nil {
				t.Logf("step %d (%+v): %v", step, op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
