package core

import (
	"iter"
	"math/bits"

	"github.com/deltacache/delta/internal/model"
)

// denseSlack bounds how far past the current dense range an ID may
// land and still be stored densely: survey IDs are sequential (1..N,
// births continuing the sequence), so growth arrives in small
// increments, while a wildly out-of-range ID (a disagreeing router,
// a corrupt frame) must not force a gigantic allocation.
const denseSlack = 65536

// objectTable indexes the node's known object universe by ID. Survey
// universes carry dense sequential IDs, so the primary store is a
// slice indexed by id−1 — 24 bytes per object instead of a map entry,
// which at a million objects per shard was the largest single
// allocation in the cluster soak. A zero stored ID marks absence;
// IDs outside the dense range overflow into a map.
type objectTable struct {
	dense  []model.Object
	sparse map[model.ObjectID]model.Object
	n      int
}

func newObjectTable(capacity int) *objectTable {
	return &objectTable{dense: make([]model.Object, 0, capacity)}
}

// grow extends the dense range to at least want slots, migrating any
// sparse entries the new range absorbs (the invariant is that sparse
// holds only IDs beyond the dense range).
func (t *objectTable) grow(want int) {
	if want <= len(t.dense) {
		return
	}
	t.dense = append(t.dense, make([]model.Object, want-len(t.dense))...)
	for id, o := range t.sparse {
		if idx := int(id) - 1; idx >= 0 && idx < len(t.dense) {
			t.dense[idx] = o
			delete(t.sparse, id)
		}
	}
}

func (t *objectTable) put(o model.Object) {
	idx := int(o.ID) - 1
	if idx >= 0 && idx >= len(t.dense) && idx < len(t.dense)+denseSlack {
		t.grow(idx + 1)
	}
	if idx >= 0 && idx < len(t.dense) {
		if t.dense[idx].ID == 0 {
			t.n++
		}
		t.dense[idx] = o
		return
	}
	if t.sparse == nil {
		t.sparse = make(map[model.ObjectID]model.Object)
	}
	if _, dup := t.sparse[o.ID]; !dup {
		t.n++
	}
	t.sparse[o.ID] = o
}

func (t *objectTable) get(id model.ObjectID) (model.Object, bool) {
	if idx := int(id) - 1; idx >= 0 && idx < len(t.dense) {
		if t.dense[idx].ID == 0 {
			return model.Object{}, false
		}
		return t.dense[idx], true
	}
	o, ok := t.sparse[id]
	return o, ok
}

func (t *objectTable) has(id model.ObjectID) bool {
	_, ok := t.get(id)
	return ok
}

// remove drops id; an absent id is ignored. The dense range never
// shrinks, so a removed ID's slot is a hole a later put refills.
func (t *objectTable) remove(id model.ObjectID) {
	if idx := int(id) - 1; idx >= 0 && idx < len(t.dense) {
		if t.dense[idx].ID != 0 {
			t.dense[idx] = model.Object{}
			t.n--
		}
		return
	}
	if _, ok := t.sparse[id]; ok {
		delete(t.sparse, id)
		t.n--
	}
}

func (t *objectTable) len() int { return t.n }

// all yields every object, dense range first in ascending ID order,
// then sparse overflow in map order.
func (t *objectTable) all() iter.Seq[model.Object] {
	return func(yield func(model.Object) bool) {
		for _, o := range t.dense {
			if o.ID != 0 && !yield(o) {
				return
			}
		}
		for _, o := range t.sparse {
			if !yield(o) {
				return
			}
		}
	}
}

// idSet is a set of object IDs with the same dense/sparse split as
// objectTable: a bitset indexed by id−1 (one bit per object — 128 KiB
// for a million-object shard, where the set it replaced cost tens of
// bytes per entry) plus a map for out-of-range IDs.
type idSet struct {
	bits   []uint64
	sparse map[model.ObjectID]struct{}
	n      int
}

func newIDSet(capacity int) *idSet {
	return &idSet{bits: make([]uint64, 0, (capacity+63)/64)}
}

func (s *idSet) grow(words int) {
	if words <= len(s.bits) {
		return
	}
	s.bits = append(s.bits, make([]uint64, words-len(s.bits))...)
	for id := range s.sparse {
		if idx := int(id) - 1; idx >= 0 && idx < len(s.bits)*64 {
			s.bits[idx/64] |= 1 << (idx % 64)
			delete(s.sparse, id)
		}
	}
}

func (s *idSet) add(id model.ObjectID) {
	idx := int(id) - 1
	if idx >= 0 && idx >= len(s.bits)*64 && idx < len(s.bits)*64+denseSlack*64 {
		s.grow(idx/64 + 1)
	}
	if idx >= 0 && idx < len(s.bits)*64 {
		if s.bits[idx/64]&(1<<(idx%64)) == 0 {
			s.n++
		}
		s.bits[idx/64] |= 1 << (idx % 64)
		return
	}
	if s.sparse == nil {
		s.sparse = make(map[model.ObjectID]struct{})
	}
	if _, dup := s.sparse[id]; !dup {
		s.n++
	}
	s.sparse[id] = struct{}{}
}

func (s *idSet) has(id model.ObjectID) bool {
	if idx := int(id) - 1; idx >= 0 && idx < len(s.bits)*64 {
		return s.bits[idx/64]&(1<<(idx%64)) != 0
	}
	_, ok := s.sparse[id]
	return ok
}

// remove drops id; an absent id is ignored.
func (s *idSet) remove(id model.ObjectID) {
	if idx := int(id) - 1; idx >= 0 && idx < len(s.bits)*64 {
		if s.bits[idx/64]&(1<<(idx%64)) != 0 {
			s.bits[idx/64] &^= 1 << (idx % 64)
			s.n--
		}
		return
	}
	if _, ok := s.sparse[id]; ok {
		delete(s.sparse, id)
		s.n--
	}
}

func (s *idSet) len() int { return s.n }

// all yields every member, dense range first in ascending order, then
// sparse overflow in map order.
func (s *idSet) all() iter.Seq[model.ObjectID] {
	return func(yield func(model.ObjectID) bool) {
		for w, word := range s.bits {
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				if !yield(model.ObjectID(w*64 + bit + 1)) {
					return
				}
				word &= word - 1
			}
		}
		for id := range s.sparse {
			if !yield(id) {
				return
			}
		}
	}
}

// creditTable holds an int64 per object (VCover's credit, eviction
// priority and hit count) with the same dense/sparse split as
// objectTable: an int64 indexed by id−1, grown as IDs arrive (survey
// IDs, then births continuing the sequence), plus a map for
// out-of-range IDs. An absent ID reads zero.
type creditTable struct {
	dense  []int64
	sparse map[model.ObjectID]int64
}

func (t *creditTable) get(id model.ObjectID) int64 {
	if idx := int(id) - 1; idx >= 0 && idx < len(t.dense) {
		return t.dense[idx]
	}
	return t.sparse[id]
}

// set stores c for id; a zero clears it.
func (t *creditTable) set(id model.ObjectID, c int64) {
	idx := int(id) - 1
	if c != 0 && idx >= len(t.dense) && idx < len(t.dense)+denseSlack {
		t.dense = append(t.dense, make([]int64, idx+1-len(t.dense))...)
		for id, c := range t.sparse {
			if idx := int(id) - 1; idx >= 0 && idx < len(t.dense) {
				t.dense[idx] = c
				delete(t.sparse, id)
			}
		}
	}
	if idx >= 0 && idx < len(t.dense) {
		t.dense[idx] = c
		return
	}
	if c == 0 {
		delete(t.sparse, id)
		return
	}
	if t.sparse == nil {
		t.sparse = make(map[model.ObjectID]int64)
	}
	t.sparse[id] = c
}
