package cluster

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// extendRebuild is the oracle for Extend: the implementation it
// replaced, which copies the universe, re-indexes it, places each
// newborn by scanning everything placed before it and re-derives every
// replica set.
func extendRebuild(o *Ownership, objs []model.Object) *Ownership {
	n := &Ownership{
		shards:   o.shards,
		replicas: o.replicas,
		kEff:     o.kEff,
		right:    o.right,
		universe: append(slices.Clone(o.universe), objs...),
		owner:    make([]int32, len(o.universe)+len(objs)),
	}
	n.reindex()
	copy(n.owner, o.owner)
	for i, obj := range objs {
		p := len(o.universe) + i
		n.owner[p] = int32(cutOwnerScan(n, obj, p))
	}
	n.deriveReplicas()
	return n
}

// cutOwnerScan is the replaced cutOwner, verbatim: the owner of the
// newborn's predecessor in (trixel, ID) order among universe[:limit] —
// newborns placed earlier included — else of the spatially first one.
func cutOwnerScan(n *Ownership, obj model.Object, limit int) int {
	bestOwner, haveBest := -1, false
	var bestT uint64
	var bestID model.ObjectID
	firstOwner := 0
	var firstT uint64
	var firstID model.ObjectID
	haveFirst := false
	for p := 0; p < limit; p++ {
		u := &n.universe[p]
		t, id := u.Trixel, u.ID
		if !haveFirst || t < firstT || (t == firstT && id < firstID) {
			firstT, firstID, firstOwner = t, id, int(n.owner[p])
			haveFirst = true
		}
		if t > obj.Trixel || (t == obj.Trixel && id > obj.ID) {
			continue // past the newborn in cut order
		}
		if !haveBest || t > bestT || (t == bestT && id > bestID) {
			bestT, bestID, bestOwner = t, id, int(n.owner[p])
			haveBest = true
		}
	}
	if haveBest {
		return bestOwner
	}
	return firstOwner
}

// sameAnswers compares everything an Ownership tells its callers —
// Owner, Owners, ShardObjects — for every object of want's universe and
// one outside it.
func sameAnswers(got, want *Ownership) error {
	if len(got.universe) != len(want.universe) {
		return fmt.Errorf("universe of %d objects, want %d", len(got.universe), len(want.universe))
	}
	for s := range want.shards {
		if g, w := got.ShardObjects(s), want.ShardObjects(s); !slices.Equal(g, w) {
			return fmt.Errorf("shard %d holds %v, want %v", s, g, w)
		}
	}
	probe := func(id model.ObjectID) error {
		g, gok := got.Owner(id)
		w, wok := want.Owner(id)
		if g != w || gok != wok {
			return fmt.Errorf("Owner(%d) = %d,%v, want %d,%v", id, g, gok, w, wok)
		}
		gs, gok := got.Owners(id)
		ws, wok := want.Owners(id)
		if !slices.Equal(gs, ws) || gok != wok {
			return fmt.Errorf("Owners(%d) = %v,%v, want %v,%v", id, gs, gok, ws, wok)
		}
		return nil
	}
	for i := range want.universe {
		if got.universe[i] != want.universe[i] {
			return fmt.Errorf("universe[%d] = %+v, want %+v", i, got.universe[i], want.universe[i])
		}
		if err := probe(want.universe[i].ID); err != nil {
			return err
		}
	}
	return probe(1 << 30)
}

// extendStep is one random step of a growth chain.
type extendStep struct {
	Births  uint8    // batch size, 1..4
	Trixels []uint64 // spatial placement of the batch (cycled)
	Gap     uint8    // non-sequential runs: how far the batch's IDs jump
	Shards  uint8    // occasionally resize first, so cuts are re-made over births
	Fork    bool     // continue the chain from the second child, not the first
}

// TestQuickExtendMatchesRebuild is the differential test of the O(batch)
// Extend against the rebuild-everything implementation it replaced: at
// K = 1..3, over universes with dense sequential IDs,
// births that break the sequence (jumping ahead, then filling in below
// a shard's last ID) and universes that never had one, every chain of
// random birth batches answers Owner / Owners / ShardObjects / Filter
// exactly as the oracle's does. And the sharing is invisible: a parent
// answers the same after its child extends, and two children of one
// parent do not see each other's newborns.
func TestQuickExtendMatchesRebuild(t *testing.T) {
	dense := testObjects(t, 16)
	sparse := make([]model.Object, len(dense))
	for i, o := range dense {
		o.ID = o.ID*7 + 3
		sparse[len(dense)-1-i] = o
	}
	for k := 1; k <= 3; k++ {
		for name, base := range map[string][]model.Object{"dense": dense, "sparse": sparse} {
			prop := func(shards uint8, sequential bool, steps []extendStep) bool {
				n := int(shards)%5 + 1
				own, err := NewOwnership(base, n, k)
				if err != nil {
					t.Logf("new ownership: %v", err)
					return false
				}
				oracle, _ := NewOwnership(base, n, k)
				// Births take IDs past everything so far; a gapped run
				// also leaves holes that the next batch fills from below.
				next := model.ObjectID(len(base)*7 + 4)
				if name == "dense" {
					next = model.ObjectID(len(base) + 1)
				}
				var holes []model.ObjectID
				batch := func(st extendStep) []model.Object {
					objs := make([]model.Object, int(st.Births)%4+1)
					for i := range objs {
						var id model.ObjectID
						switch {
						case !sequential && len(holes) > 0 && st.Gap%2 == 1:
							id, holes = holes[len(holes)-1], holes[:len(holes)-1]
						case !sequential && st.Gap%4 == 2:
							holes = append(holes, next, next+1)
							id, next = next+2, next+3
						default:
							id, next = next, next+1
						}
						trixel := uint64(0)
						if len(st.Trixels) > 0 {
							trixel = st.Trixels[i%len(st.Trixels)] % 4096
						}
						objs[i] = model.Object{ID: id, Size: cost.MB, Trixel: trixel}
					}
					return objs
				}
				if len(steps) > 16 {
					steps = steps[:16]
				}
				for i, st := range steps {
					if m := int(st.Shards)%12 + 1; m <= 5 {
						if own, err = own.Resize(m); err != nil {
							t.Logf("step %d: resize to %d: %v", i, m, err)
							return false
						}
						oracle, _ = oracle.Resize(m)
					}
					first, second := batch(st), batch(st)
					child, err := own.Extend(first)
					if err != nil {
						t.Logf("step %d: extend: %v", i, err)
						return false
					}
					sibling, err := own.Extend(second)
					if err != nil {
						t.Logf("step %d: second extend: %v", i, err)
						return false
					}
					wantChild, wantSibling := extendRebuild(oracle, first), extendRebuild(oracle, second)
					for _, c := range []struct {
						what      string
						got, want *Ownership
					}{
						{"parent after its children extended", own, oracle},
						{"first child", child, wantChild},
						{"second child", sibling, wantSibling},
					} {
						if err := sameAnswers(c.got, c.want); err != nil {
							t.Logf("step %d (%+v), %s: %v", i, st, c.what, err)
							return false
						}
					}
					if err := checkPartition(child); err != nil {
						t.Logf("step %d: %v", i, err)
						return false
					}
					own, oracle = child, wantChild
					if st.Fork {
						own, oracle = sibling, wantSibling
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Errorf("K=%d %s IDs: %v", k, name, err)
			}
		}
	}
}
