package cluster

import (
	"slices"
	"testing"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
)

func testObjects(t *testing.T, n int) []model.Object {
	t.Helper()
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = n
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return survey.Objects()
}

func TestOwnershipCoversUniverse(t *testing.T) {
	objects := testObjects(t, 68)
	for _, mode := range []Mode{Rendezvous, HTMAware} {
		for _, shards := range []int{1, 2, 4, 8} {
			own, err := NewOwnership(objects, shards, mode)
			if err != nil {
				t.Fatalf("%s/%d: %v", mode, shards, err)
			}
			// Every object owned by exactly one shard; per-shard lists
			// partition the universe.
			total := 0
			for s := 0; s < shards; s++ {
				ids := own.ShardObjects(s)
				if len(ids) == 0 {
					t.Errorf("%s/%d: shard %d owns nothing", mode, shards, s)
				}
				total += len(ids)
				for _, id := range ids {
					if got, ok := own.Owner(id); !ok || got != s {
						t.Fatalf("%s/%d: owner(%d) = %d,%v, want %d", mode, shards, id, got, ok, s)
					}
					if owners, _ := own.Owners(id); !slices.Contains(owners, s) {
						t.Fatalf("%s/%d: owners(%d) = %v lack the owner %d", mode, shards, id, owners, s)
					}
				}
			}
			if total != len(objects) {
				t.Errorf("%s/%d: shards own %d objects, universe has %d", mode, shards, total, len(objects))
			}
		}
	}
}

func TestOwnershipDeterministic(t *testing.T) {
	objects := testObjects(t, 68)
	for _, mode := range []Mode{Rendezvous, HTMAware} {
		a, err := NewOwnership(objects, 4, mode)
		if err != nil {
			t.Fatal(err)
		}
		// A permuted universe must produce the identical assignment —
		// the router and the shards build it independently.
		permuted := make([]model.Object, len(objects))
		for i, o := range objects {
			permuted[(i*7)%len(objects)] = o
		}
		b, err := NewOwnership(permuted, 4, mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objects {
			sa, _ := a.Owner(o.ID)
			sb, _ := b.Owner(o.ID)
			if sa != sb {
				t.Fatalf("%s: owner(%d) differs across construction orders: %d vs %d", mode, o.ID, sa, sb)
			}
		}
	}
}

// TestRendezvousStability verifies the defining property of
// highest-random-weight hashing: growing the cluster from n to n+1
// shards only moves objects onto the new shard — survivors keep
// everything they had.
func TestRendezvousStability(t *testing.T) {
	objects := testObjects(t, 68)
	before, err := NewOwnership(objects, 4, Rendezvous)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewOwnership(objects, 5, Rendezvous)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, o := range objects {
		was, _ := before.Owner(o.ID)
		now, _ := after.Owner(o.ID)
		if was != now {
			moved++
			if now != 4 {
				t.Errorf("object %d moved %d→%d; rendezvous may only move objects to the new shard", o.ID, was, now)
			}
		}
	}
	if moved == 0 {
		t.Error("no objects moved to the new shard (suspicious hash)")
	}
	if moved > len(objects)/2 {
		t.Errorf("%d/%d objects moved; expected roughly 1/5", moved, len(objects))
	}
}

// TestHTMAwareLocality checks the mode's purpose: a cap query's cover
// (a spatially contiguous object set) should touch few shards —
// strictly fewer scatter fragments on average than rendezvous
// placement of the same universe.
func TestHTMAwareLocality(t *testing.T) {
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 68
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	objects := survey.Objects()
	const shards = 8
	htmOwn, err := NewOwnership(objects, shards, HTMAware)
	if err != nil {
		t.Fatal(err)
	}
	rdvOwn, err := NewOwnership(objects, shards, Rendezvous)
	if err != nil {
		t.Fatal(err)
	}
	touched := func(own *Ownership, ids []model.ObjectID) int {
		frags, stranded, _ := plan(testRouting(own), fragment{query: model.Query{Objects: ids}}, nil, false)
		if len(stranded) > 0 {
			t.Fatalf("objects %v outside the universe", stranded)
		}
		return len(frags)
	}
	var htmTotal, rdvTotal int
	caps := 0
	for ra := 0.0; ra < 360; ra += 30 {
		for _, dec := range []float64{-45, 0, 45} {
			ids := survey.CoverCap(geom.CapFromRADec(ra, dec, 4))
			if len(ids) < 2 {
				continue
			}
			caps++
			htmTotal += touched(htmOwn, ids)
			rdvTotal += touched(rdvOwn, ids)
		}
	}
	if caps == 0 {
		t.Fatal("no multi-object caps generated")
	}
	if htmTotal >= rdvTotal {
		t.Errorf("HTM-aware placement touches %d shard-fragments over %d caps, rendezvous %d; spatial co-location should scatter less",
			htmTotal, caps, rdvTotal)
	}
}

// TestHTMAwareBalance checks that size-balanced cutting keeps the
// heaviest shard within a reasonable factor of the mean.
func TestHTMAwareBalance(t *testing.T) {
	objects := testObjects(t, 68)
	const shards = 4
	own, err := NewOwnership(objects, shards, HTMAware)
	if err != nil {
		t.Fatal(err)
	}
	sizeOf := make(map[model.ObjectID]cost.Bytes, len(objects))
	var total cost.Bytes
	for _, o := range objects {
		sizeOf[o.ID] = o.Size
		total += o.Size
	}
	mean := total / shards
	for s := 0; s < shards; s++ {
		var sum cost.Bytes
		for _, id := range own.ShardObjects(s) {
			sum += sizeOf[id]
		}
		// The survey's object sizes span orders of magnitude (50 MB –
		// 90 GB), so a single giant object bounds achievable balance;
		// 2.5× mean catches gross mis-cuts without flaking on skew.
		if sum > mean*5/2 {
			t.Errorf("shard %d holds %v of %v total (mean %v)", s, sum, total, mean)
		}
	}
}

func TestSplitRejectsUnknownObject(t *testing.T) {
	objects := testObjects(t, 16)
	own, err := NewOwnership(objects, 2, Rendezvous)
	if err != nil {
		t.Fatal(err)
	}
	_, stranded, _ := plan(testRouting(own), fragment{query: model.Query{Objects: []model.ObjectID{1, 999}}}, nil, false)
	if !slices.Equal(stranded, []model.ObjectID{999}) {
		t.Errorf("plan stranded %v, want the object outside the universe (999)", stranded)
	}
}

// clusteredUniverse builds the spatially clustered shape the HTM
// resize advantage shows up on: many tiny objects packed into one
// trixel neighborhood, a few huge objects spread across the rest of
// the sky. Size-balanced HTM cuts then move boundary segments through
// the sparse huge-object regions (few objects per byte), while
// rendezvous moves a count-uniform sample of the whole universe.
func clusteredUniverse() []model.Object {
	var objs []model.Object
	id := model.ObjectID(1)
	for i := 0; i < 48; i++ {
		objs = append(objs, model.Object{ID: id, Size: cost.MB, Trixel: uint64(1000 + i)})
		id++
	}
	for i := 0; i < 16; i++ {
		objs = append(objs, model.Object{ID: id, Size: 4 * cost.GB, Trixel: uint64(10000 + i*500)})
		id++
	}
	return objs
}

// TestResizeMovingEqualsSymmetricDifference pins the ownership-diff
// math a live resize is built on: for any N→M resize, the moving set
// equals the union of per-shard symmetric differences of the old and
// new ownership maps, and every moving object appears in exactly two
// of those symmetric differences (its old owner's and its new
// owner's) while non-moving objects appear in none.
func TestResizeMovingEqualsSymmetricDifference(t *testing.T) {
	universes := map[string][]model.Object{
		"survey":    testObjects(t, 68),
		"clustered": clusteredUniverse(),
	}
	pairs := [][2]int{{1, 4}, {4, 8}, {8, 4}, {4, 6}, {6, 4}, {2, 7}, {7, 2}, {3, 3}}
	for name, objects := range universes {
		for _, mode := range []Mode{Rendezvous, HTMAware} {
			for _, pair := range pairs {
				n, m := pair[0], pair[1]
				old, err := NewOwnership(objects, n, mode)
				if err != nil {
					t.Fatalf("%s %s %d→%d: %v", name, mode, n, m, err)
				}
				resized, err := old.Resize(m)
				if err != nil {
					t.Fatalf("%s %s %d→%d: %v", name, mode, n, m, err)
				}
				moving, err := Moving(old, resized)
				if err != nil {
					t.Fatalf("%s %s %d→%d: %v", name, mode, n, m, err)
				}
				movingSet := make(map[model.ObjectID]bool, len(moving))
				for _, id := range moving {
					movingSet[id] = true
				}
				// Count symmetric-difference appearances per object across
				// all shard indices of either ownership.
				appearances := make(map[model.ObjectID]int)
				maxShards := max(n, m)
				for s := 0; s < maxShards; s++ {
					oldSet := make(map[model.ObjectID]bool)
					if s < n {
						for _, id := range old.ShardObjects(s) {
							oldSet[id] = true
						}
					}
					newSet := make(map[model.ObjectID]bool)
					if s < m {
						for _, id := range resized.ShardObjects(s) {
							newSet[id] = true
						}
					}
					for id := range oldSet {
						if !newSet[id] {
							appearances[id]++
						}
					}
					for id := range newSet {
						if !oldSet[id] {
							appearances[id]++
						}
					}
				}
				for _, o := range objects {
					want := 0
					if movingSet[o.ID] {
						want = 2
					}
					if appearances[o.ID] != want {
						t.Errorf("%s %s %d→%d: object %d appears in %d shard symdiffs, want %d (moving=%v)",
							name, mode, n, m, o.ID, appearances[o.ID], want, movingSet[o.ID])
					}
				}
				// Sanity: a resized ownership still populates every shard.
				for s := 0; s < m; s++ {
					if len(resized.ShardObjects(s)) == 0 {
						t.Errorf("%s %s %d→%d: shard %d owns nothing after resize", name, mode, n, m, s)
					}
				}
				if resized.Shards() != m {
					t.Errorf("%s %s %d→%d: resized to %d shards", name, mode, n, m, resized.Shards())
				}
			}
		}
	}
}

// TestRendezvousResizeMinimalMovement pins rendezvous's defining
// resize property through the Resize API: growing moves objects only
// onto new shards, shrinking only off removed shards.
func TestRendezvousResizeMinimalMovement(t *testing.T) {
	objects := testObjects(t, 68)
	old, err := NewOwnership(objects, 4, Rendezvous)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := old.Resize(6)
	if err != nil {
		t.Fatal(err)
	}
	moving, err := Moving(old, grown)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range moving {
		if now, _ := grown.Owner(id); now < 4 {
			t.Errorf("grow 4→6 moved object %d to continuing shard %d", id, now)
		}
	}
	shrunk, err := grown.Resize(4)
	if err != nil {
		t.Fatal(err)
	}
	moving, err = Moving(grown, shrunk)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range moving {
		if was, _ := grown.Owner(id); was < 4 {
			t.Errorf("shrink 6→4 moved object %d off continuing shard %d", id, was)
		}
	}
}

// TestHTMResizeMovesFewerThanRendezvous checks the payoff of the
// movement-aligned HTM relabeling: on a spatially clustered universe,
// an HTM-mode resize migrates fewer objects than a rendezvous-mode
// resize of the same universe (boundary shifts slice through sparse
// regions; rendezvous reshuffles a count-uniform sample).
func TestHTMResizeMovesFewerThanRendezvous(t *testing.T) {
	objects := clusteredUniverse()
	for _, pair := range [][2]int{{4, 8}, {8, 4}, {4, 6}, {2, 8}} {
		n, m := pair[0], pair[1]
		count := func(mode Mode) int {
			old, err := NewOwnership(objects, n, mode)
			if err != nil {
				t.Fatalf("%s %d→%d: %v", mode, n, m, err)
			}
			resized, err := old.Resize(m)
			if err != nil {
				t.Fatalf("%s %d→%d: %v", mode, n, m, err)
			}
			moving, err := Moving(old, resized)
			if err != nil {
				t.Fatalf("%s %d→%d: %v", mode, n, m, err)
			}
			return len(moving)
		}
		htm, rdv := count(HTMAware), count(Rendezvous)
		if htm >= rdv {
			t.Errorf("%d→%d: HTM moves %d objects, rendezvous %d; aligned HTM cuts should move fewer on a clustered universe",
				n, m, htm, rdv)
		}
	}
}

// TestResizeSameCountIsIdentity checks that resizing to the current
// shard count moves nothing.
func TestResizeSameCountIsIdentity(t *testing.T) {
	objects := testObjects(t, 68)
	for _, mode := range []Mode{Rendezvous, HTMAware} {
		own, err := NewOwnership(objects, 4, mode)
		if err != nil {
			t.Fatal(err)
		}
		same, err := own.Resize(4)
		if err != nil {
			t.Fatal(err)
		}
		moving, err := Moving(own, same)
		if err != nil {
			t.Fatal(err)
		}
		if len(moving) != 0 {
			t.Errorf("%s: resize 4→4 moves %d objects", mode, len(moving))
		}
	}
}

func TestOwnershipRejectsBadShapes(t *testing.T) {
	objects := testObjects(t, 16)
	if _, err := NewOwnership(objects, 0, Rendezvous); err == nil {
		t.Error("accepted zero shards")
	}
	if _, err := NewOwnership(objects, 17, Rendezvous); err == nil {
		t.Error("accepted more shards than objects")
	}
	if _, err := NewOwnership(nil, 1, Rendezvous); err == nil {
		t.Error("accepted empty universe")
	}
}
