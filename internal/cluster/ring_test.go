package cluster

import (
	"fmt"
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

// mustOwnership places objects on n shards with K = k.
func mustOwnership(t *testing.T, objects []model.Object, n, k int) *Ownership {
	t.Helper()
	own, err := NewOwnership(objects, n, k)
	if err != nil {
		t.Fatal(err)
	}
	return own
}

func TestOwnershipCoversUniverse(t *testing.T) {
	objects := testObjects(t, 68)
	for _, shards := range []int{1, 2, 4, 8} {
		own := mustOwnership(t, objects, shards, 1)
		// Every object owned by exactly one shard; per-shard lists
		// partition the universe.
		total := 0
		for s := 0; s < shards; s++ {
			ids := own.ShardObjects(s)
			if len(ids) == 0 {
				t.Errorf("%d shards: shard %d owns nothing", shards, s)
			}
			total += len(ids)
			for _, id := range ids {
				if got, ok := own.Owner(id); !ok || got != s {
					t.Fatalf("%d shards: owner(%d) = %d,%v, want %d", shards, id, got, ok, s)
				}
				if owners, _ := own.Owners(id); !slices.Contains(owners, s) {
					t.Fatalf("%d shards: owners(%d) = %v lack the owner %d", shards, id, owners, s)
				}
			}
		}
		if total != len(objects) {
			t.Errorf("%d shards: shards own %d objects, universe has %d", shards, total, len(objects))
		}
	}
}

func TestOwnershipDeterministic(t *testing.T) {
	objects := testObjects(t, 68)
	a := mustOwnership(t, objects, 4, 1)
	// A permuted universe must produce the identical assignment: the
	// cuts depend on the objects, not on the order they are listed in.
	permuted := make([]model.Object, len(objects))
	for i, o := range objects {
		permuted[(i*7)%len(objects)] = o
	}
	b := mustOwnership(t, permuted, 4, 1)
	for _, o := range objects {
		sa, _ := a.Owner(o.ID)
		sb, _ := b.Owner(o.ID)
		if sa != sb {
			t.Fatalf("owner(%d) differs across construction orders: %d vs %d", o.ID, sa, sb)
		}
	}
}

// TestHTMAwareLocality pins the purpose of the cuts: a cap query's
// cover (a spatially contiguous object set) touches few shards. The
// pinned total is the count the cuts reach over these caps at 8 shards;
// placement by ID order round-robin scatters them wider.
func TestHTMAwareLocality(t *testing.T) {
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 68
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	own := mustOwnership(t, survey.Objects(), 8, 1)
	fragments, caps := 0, 0
	for ra := 0.0; ra < 360; ra += 30 {
		for _, dec := range []float64{-45, 0, 45} {
			ids := survey.CoverCap(geom.CapFromRADec(ra, dec, 4))
			if len(ids) < 2 {
				continue
			}
			caps++
			frags, stranded, _ := plan(testRouting(own), fragment{query: model.Query{Objects: ids}}, nil, false)
			if len(stranded) > 0 {
				t.Fatalf("objects %v outside the universe", stranded)
			}
			fragments += len(frags)
		}
	}
	if caps != 18 || fragments != 40 {
		t.Errorf("%d multi-object caps touch %d shard-fragments, want 18 caps and 40 fragments", caps, fragments)
	}
}

// TestHTMAwareBalance checks that size-balanced cutting keeps the
// heaviest shard within a reasonable factor of the mean.
func TestHTMAwareBalance(t *testing.T) {
	objects := testObjects(t, 68)
	const shards = 4
	own := mustOwnership(t, objects, shards, 1)
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
	own := mustOwnership(t, testObjects(t, 16), 2, 1)
	_, stranded, _ := plan(testRouting(own), fragment{query: model.Query{Objects: []model.ObjectID{1, 999}}}, nil, false)
	if !slices.Equal(stranded, []model.ObjectID{999}) {
		t.Errorf("plan stranded %v, want the object outside the universe (999)", stranded)
	}
}

// clusteredUniverse builds a spatially clustered shape: many tiny
// objects packed into one trixel neighborhood, a few huge objects
// spread across the rest of the sky. Size-balanced cuts then move
// boundary segments through the sparse huge-object regions (few
// objects per byte).
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
		for _, pair := range pairs {
			n, m := pair[0], pair[1]
			old := mustOwnership(t, objects, n, 1)
			resized, err := old.Resize(m)
			if err != nil {
				t.Fatalf("%s %d→%d: %v", name, n, m, err)
			}
			moving, err := Moving(old, resized)
			if err != nil {
				t.Fatalf("%s %d→%d: %v", name, n, m, err)
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
					t.Errorf("%s %d→%d: object %d appears in %d shard symdiffs, want %d (moving=%v)",
						name, n, m, o.ID, appearances[o.ID], want, movingSet[o.ID])
				}
			}
			// Sanity: a resized ownership still populates every shard.
			for s := 0; s < m; s++ {
				if len(resized.ShardObjects(s)) == 0 {
					t.Errorf("%s %d→%d: shard %d owns nothing after resize", name, n, m, s)
				}
			}
			if resized.Shards() != m {
				t.Errorf("%s %d→%d: resized to %d shards", name, n, m, resized.Shards())
			}
		}
	}
}

// TestHTMResizeMovedObjects pins the payoff of relabeling the recut
// runs: on the clustered universe each resize moves only the objects
// its shifted boundaries pass. The recut without the relabeling moves
// more in every pair (14, 14, 11 and 14).
func TestHTMResizeMovedObjects(t *testing.T) {
	objects := clusteredUniverse()
	for _, c := range []struct{ n, m, moved int }{{4, 8, 8}, {8, 4, 12}, {4, 6, 5}, {2, 8, 12}} {
		old := mustOwnership(t, objects, c.n, 1)
		resized, err := old.Resize(c.m)
		if err != nil {
			t.Fatalf("%d→%d: %v", c.n, c.m, err)
		}
		moving, err := Moving(old, resized)
		if err != nil {
			t.Fatalf("%d→%d: %v", c.n, c.m, err)
		}
		if len(moving) != c.moved {
			t.Errorf("%d→%d moves %d objects, want %d", c.n, c.m, len(moving), c.moved)
		}
	}
}

// spatialRuns returns the primary labels of o's runs in spatial
// ((trixel, ID)) order, or an error if some shard's primaries are not
// one contiguous run.
func spatialRuns(o *Ownership) ([]int32, error) {
	order := make([]int, len(o.universe))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if cutBefore(&o.universe[a], &o.universe[b]) {
			return -1
		}
		return 1
	})
	var runs []int32
	for _, p := range order {
		if s := o.owner[p]; len(runs) == 0 || runs[len(runs)-1] != s {
			if slices.Contains(runs, s) {
				return nil, fmt.Errorf("shard %d's primaries are not contiguous", s)
			}
			runs = append(runs, s)
		}
	}
	return runs, nil
}

// checkSpatialRanks verifies the replica rule: rank r of each object's
// replica set is the primary of the r-th run to the right of its own
// along the spatial order (mod shards), whatever labels the runs carry.
func checkSpatialRanks(o *Ownership) error {
	runs, err := spatialRuns(o)
	if err != nil {
		return err
	}
	if len(runs) != o.shards {
		return fmt.Errorf("%d runs over %d shards", len(runs), o.shards)
	}
	for _, obj := range o.universe {
		owners, _ := o.Owners(obj.ID)
		at := slices.Index(runs, int32(owners[0]))
		for r, s := range owners {
			if want := runs[(at+r)%len(runs)]; int32(s) != want {
				return fmt.Errorf("object %d: rank %d on shard %d, want shard %d, %d runs right of the primary's",
					obj.ID, r, s, want, r)
			}
		}
	}
	return nil
}

// TestReplicasFollowSpatialOrder pins the replica rule across resizes,
// whose relabeling permutes the shard labels of the runs: a replica
// set must stay the owning run and its right neighbors on the sky, not
// the next labels. (checkPartition applies the same check to every
// ownership the growth and resize properties reach.)
func TestReplicasFollowSpatialOrder(t *testing.T) {
	objects := testObjects(t, 400)
	for _, k := range []int{2, 3} {
		for _, chain := range [][2]int{{4, 5}, {4, 8}, {8, 4}, {3, 7}} {
			resized, err := mustOwnership(t, objects, chain[0], k).Resize(chain[1])
			if err != nil {
				t.Fatal(err)
			}
			grown, err := resized.Extend([]model.Object{{ID: 401, Size: cost.MB, Trixel: objects[17].Trixel}})
			if err != nil {
				t.Fatal(err)
			}
			for what, own := range map[string]*Ownership{"resized": resized, "resized then extended": grown} {
				if err := checkSpatialRanks(own); err != nil {
					t.Errorf("K=%d %d→%d, %s: %v", k, chain[0], chain[1], what, err)
				}
			}
		}
	}
}

// TestResizeSameCountIsIdentity checks that resizing to the current
// shard count moves nothing.
func TestResizeSameCountIsIdentity(t *testing.T) {
	own := mustOwnership(t, testObjects(t, 68), 4, 1)
	same, err := own.Resize(4)
	if err != nil {
		t.Fatal(err)
	}
	moving, err := Moving(own, same)
	if err != nil {
		t.Fatal(err)
	}
	if len(moving) != 0 {
		t.Errorf("resize 4→4 moves %d objects", len(moving))
	}
}

func TestOwnershipRejectsBadShapes(t *testing.T) {
	objects := testObjects(t, 16)
	if _, err := NewOwnership(objects, 0, 1); err == nil {
		t.Error("accepted zero shards")
	}
	if _, err := NewOwnership(objects, 17, 1); err == nil {
		t.Error("accepted more shards than objects")
	}
	if _, err := NewOwnership(nil, 1, 1); err == nil {
		t.Error("accepted empty universe")
	}
	if _, err := NewOwnership(objects, 2, 0); err == nil {
		t.Error("accepted zero replicas")
	}
}
