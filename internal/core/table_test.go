package core

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

func TestObjectTableDenseSparse(t *testing.T) {
	tab := newObjectTable(4)
	if tab.len() != 0 {
		t.Fatalf("fresh table len = %d", tab.len())
	}
	if _, ok := tab.get(1); ok {
		t.Fatal("empty table claims object 1")
	}

	// Sequential IDs land in the dense slice.
	for id := model.ObjectID(1); id <= 8; id++ {
		tab.put(model.Object{ID: id, Size: 10})
	}
	if tab.len() != 8 {
		t.Fatalf("len = %d, want 8", tab.len())
	}
	if len(tab.sparse) != 0 {
		t.Fatalf("sequential IDs spilled to sparse: %d entries", len(tab.sparse))
	}

	// A put is an upsert, not a duplicate.
	tab.put(model.Object{ID: 3, Size: 99})
	if tab.len() != 8 {
		t.Fatalf("upsert changed len to %d", tab.len())
	}
	if o, ok := tab.get(3); !ok || o.Size != 99 {
		t.Fatalf("get(3) = %+v, %v after upsert", o, ok)
	}

	// An ID within denseSlack of the range end grows the dense slice;
	// one far beyond it overflows into the sparse map.
	tab.put(model.Object{ID: model.ObjectID(8 + denseSlack)})
	if len(tab.sparse) != 0 {
		t.Fatalf("slack-range ID went sparse (dense len %d)", len(tab.dense))
	}
	far := model.ObjectID(len(tab.dense) + denseSlack + 7)
	tab.put(model.Object{ID: far, Size: 5})
	if _, inSparse := tab.sparse[far]; !inSparse {
		t.Fatalf("far ID %d not in sparse overflow", far)
	}
	if o, ok := tab.get(far); !ok || o.Size != 5 {
		t.Fatalf("get(far) = %+v, %v", o, ok)
	}

	// Growing the dense range absorbs the sparse entry and preserves
	// membership.
	before := tab.len()
	tab.grow(int(far) + 10)
	if len(tab.sparse) != 0 {
		t.Fatalf("grow left %d sparse entries", len(tab.sparse))
	}
	if tab.len() != before {
		t.Fatalf("grow changed len %d -> %d", before, tab.len())
	}
	if o, ok := tab.get(far); !ok || o.Size != 5 {
		t.Fatalf("get(far) after grow = %+v, %v", o, ok)
	}

	// Unset slots inside the dense range stay absent.
	if tab.has(9) {
		t.Fatal("hole in the dense range reported present")
	}
}

func TestIDSetDenseSparse(t *testing.T) {
	s := newIDSet(64)
	for _, id := range []model.ObjectID{1, 64, 65, 2, 64} {
		s.add(id)
	}
	if s.len() != 4 {
		t.Fatalf("len = %d, want 4 (re-add must not double-count)", s.len())
	}
	for _, id := range []model.ObjectID{1, 2, 64, 65} {
		if !s.has(id) {
			t.Fatalf("missing member %d", id)
		}
	}
	if s.has(3) || s.has(66) {
		t.Fatal("phantom member")
	}

	// A far-out ID overflows to sparse, and grow absorbs it.
	far := model.ObjectID(len(s.bits)*64 + denseSlack*64 + 100)
	s.add(far)
	if _, inSparse := s.sparse[far]; !inSparse {
		t.Fatalf("far ID %d not in sparse overflow", far)
	}
	s.grow(int(far)/64 + 1)
	if len(s.sparse) != 0 {
		t.Fatal("grow left sparse entries behind")
	}
	if !s.has(far) || s.len() != 5 {
		t.Fatalf("membership broken after grow: has=%v len=%d", s.has(far), s.len())
	}

	var got []model.ObjectID
	for id := range s.all() {
		got = append(got, id)
	}
	slices.Sort(got)
	want := []model.ObjectID{1, 2, 64, 65, far}
	if !slices.Equal(got, want) {
		t.Fatalf("all() = %v, want %v", got, want)
	}
}

// TestIDSetMatchesMap drives idSet against the reference map
// implementation with arbitrary ID streams: membership, cardinality,
// and iteration must agree regardless of how adds split across the
// dense bitset and the sparse overflow.
func TestIDSetMatchesMap(t *testing.T) {
	check := func(raw []uint32) bool {
		s := newIDSet(8)
		ref := make(map[model.ObjectID]struct{})
		for _, r := range raw {
			id := model.ObjectID(r%100000 + 1)
			s.add(id)
			ref[id] = struct{}{}
		}
		if s.len() != len(ref) {
			return false
		}
		for id := range ref {
			if !s.has(id) {
				return false
			}
		}
		seen := 0
		for id := range s.all() {
			if _, ok := ref[id]; !ok {
				return false
			}
			seen++
		}
		return seen == len(ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTablesRemoveMatchMap drives idSet and objectTable through
// random add / remove / has sequences against a map oracle. IDs come
// from every range the layouts split: the dense range, IDs within
// denseSlack past its end (which grow it and absorb overflow entries),
// IDs far past it and below 1 (the sparse overflow), and re-adds of
// removed IDs; membership, cardinality and iteration must agree after
// every step.
func TestQuickTablesRemoveMatchMap(t *testing.T) {
	check := func(ops []uint16) bool {
		set, tab := newIDSet(8), newObjectTable(8)
		ref := make(map[model.ObjectID]cost.Bytes)
		for i, op := range ops {
			var id model.ObjectID
			switch r := int(op >> 3); op % 4 {
			case 0: // dense
				id = model.ObjectID(r%64 + 1)
			case 1: // past the dense range, within the slack of either layout
				id = model.ObjectID(len(tab.dense) + r%(2*denseSlack) + 1)
			case 2: // sparse overflow, far past the end or below 1
				id = model.ObjectID(len(set.bits)*64 + denseSlack*64 + r)
				if r%2 == 1 {
					id = -model.ObjectID(r)
				}
			default: // a member, to remove or re-add
				for known := range ref {
					id = known
					break
				}
				if id == 0 {
					continue
				}
			}
			if op&4 != 0 {
				set.remove(id)
				tab.remove(id)
				delete(ref, id)
			} else {
				set.add(id)
				tab.put(model.Object{ID: id, Size: cost.Bytes(i + 1)})
				ref[id] = cost.Bytes(i + 1)
			}
			if set.len() != len(ref) || tab.len() != len(ref) || set.has(id) != (op&4 == 0) {
				return false
			}
			if o, ok := tab.get(id); ok != (op&4 == 0) || (ok && (o.ID != id || o.Size != ref[id])) {
				return false
			}
		}
		for id, size := range ref {
			if o, ok := tab.get(id); !set.has(id) || !ok || o.Size != size {
				return false
			}
		}
		n := 0
		for id := range set.all() {
			if _, ok := ref[id]; !ok {
				return false
			}
			n++
		}
		for o := range tab.all() {
			if ref[o.ID] != o.Size {
				return false
			}
			n++
		}
		return n == 2*len(ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
