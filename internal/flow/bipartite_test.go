package flow

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bruteCover computes the canonical minimum-weight vertex cover of a
// bipartite graph by enumerating subsets of the left side: for a fixed
// left subset, every right vertex adjacent to an uncovered left vertex
// is forced into the cover. Among the minimum-weight covers it returns
// the one whose right side lies inside every other's and whose left side
// contains every other's: the cover of the minimal minimum cut, which
// both solvers must return. It fails the test if no such cover exists.
func bruteCover(t testing.TB, leftW, rightW map[int64]int64, edges [][2]int64) Cover {
	t.Helper()
	leftKeys := slices.Sorted(maps.Keys(leftW))
	var covers []Cover
	for mask := 0; mask < 1<<len(leftKeys); mask++ {
		var c Cover
		inCover := make(map[int64]bool, len(leftKeys))
		for i, k := range leftKeys {
			if mask&(1<<i) != 0 {
				inCover[k] = true
				c.Left = append(c.Left, k)
				c.Weight += leftW[k]
			}
		}
		forced := make(map[int64]bool)
		for _, e := range edges {
			if !inCover[e[0]] {
				forced[e[1]] = true
			}
		}
		c.Right = slices.Sorted(maps.Keys(forced))
		for _, r := range c.Right {
			c.Weight += rightW[r]
		}
		switch {
		case len(covers) == 0 || c.Weight < covers[0].Weight:
			covers = []Cover{c}
		case c.Weight == covers[0].Weight:
			covers = append(covers, c)
		}
	}
	for _, c := range covers {
		canonical := true
		for _, o := range covers {
			canonical = canonical && isSubset(c.Right, o.Right) && isSubset(o.Left, c.Left)
		}
		if canonical {
			return c
		}
	}
	t.Fatalf("no minimum cover contains the others: %+v", covers)
	return Cover{}
}

func isSubset(a, b []int64) bool {
	for _, k := range a {
		if !slices.Contains(b, k) {
			return false
		}
	}
	return true
}

// sameCover reports whether two covers have the same members and weight.
func sameCover(a, b Cover) bool {
	return a.Weight == b.Weight && slices.Equal(a.Left, b.Left) && slices.Equal(a.Right, b.Right)
}

func containsRight(c Cover, key int64) bool {
	_, ok := slices.BinarySearch(c.Right, key)
	return ok
}

// flowValue is the total flow, the sum of the source edges' flows.
func flowValue(b *Bipartite) int64 {
	var f int64
	for _, v := range b.verts {
		if v.live && !v.right {
			f += v.f
		}
	}
	return f
}

// checkInvariants holds the solver's state to a valid flow on the live
// graph: the key maps name exactly the live slots, every arc sits at its
// recorded position in both endpoints' lists, flows are within their
// capacities and conserved at every vertex, and no slot is both live
// and free.
func checkInvariants(t testing.TB, b *Bipartite) {
	t.Helper()
	free := make(map[int32]bool)
	for _, v := range b.freeV {
		free[v] = true
	}
	live := 0
	for i, v := range b.verts {
		if !v.live {
			continue
		}
		live++
		side := b.left
		if v.right {
			side = b.right
		}
		if side[v.key] != int32(i) || free[int32(i)] {
			t.Fatalf("slot %d (key %d) is not the live slot of its key", i, v.key)
		}
		if v.f < 0 || v.f > v.w {
			t.Fatalf("slot %d: terminal flow %d outside [0, %d]", i, v.f, v.w)
		}
		var sum int64
		for pos, a := range v.arcs {
			ar := b.arcs[a]
			at, end := ar.li, ar.l
			if v.right {
				at, end = ar.ri, ar.r
			}
			if end != int32(i) || at != int32(pos) {
				t.Fatalf("slot %d: arc %d recorded at %d/%d, found at %d", i, a, end, at, pos)
			}
			if ar.f < 0 {
				t.Fatalf("arc %d: negative flow %d", a, ar.f)
			}
			sum += ar.f
		}
		if sum != v.f {
			t.Fatalf("slot %d: arcs carry %d, terminal edge %d", i, sum, v.f)
		}
	}
	if live != len(b.left)+len(b.right) || len(b.verts)-live != len(b.freeV) {
		t.Fatalf("%d live slots, %d keys, %d free of %d", live, len(b.left)+len(b.right), len(b.freeV), len(b.verts))
	}
}

func checkCoverValid(t *testing.T, c Cover, edges [][2]int64) {
	t.Helper()
	for _, e := range edges {
		if !c.ContainsLeft(e[0]) && !containsRight(c, e[1]) {
			t.Fatalf("edge (%d,%d) not covered by %+v", e[0], e[1], c)
		}
	}
}

func TestBipartitePaperExampleSubgraph(t *testing.T) {
	// The internal interaction graph of Section 3.1: cached objects form
	// a subgraph with updates u1 (1 GB), u6 (2 GB) and query q7 (4 GB);
	// q7 interacts with both. Shipping u1+u6 (3 GB) beats shipping q7
	// (4 GB).
	b := NewBipartite()
	if err := b.AddLeft(7, 4); err != nil { // q7
		t.Fatal(err)
	}
	if err := b.AddRight(1, 1); err != nil { // u1
		t.Fatal(err)
	}
	if err := b.AddRight(6, 2); err != nil { // u6
		t.Fatal(err)
	}
	if err := b.Connect(7, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(7, 6); err != nil {
		t.Fatal(err)
	}
	c := b.Solve()
	if c.Weight != 3 {
		t.Errorf("cover weight = %d, want 3", c.Weight)
	}
	if c.ContainsLeft(7) {
		t.Error("q7 should not be in the cover (updates are cheaper)")
	}
	if !containsRight(c, 1) || !containsRight(c, 6) {
		t.Errorf("u1 and u6 should be in the cover, got %+v", c)
	}
}

func TestBipartiteShipQueryWhenUpdatesExpensive(t *testing.T) {
	b := NewBipartite()
	_ = b.AddLeft(1, 2)   // cheap query
	_ = b.AddRight(1, 10) // expensive update
	_ = b.Connect(1, 1)
	c := b.Solve()
	if !c.ContainsLeft(1) || c.Weight != 2 {
		t.Errorf("expected query in cover with weight 2, got %+v", c)
	}
}

func TestBipartiteIsolatedVerticesNeverInCover(t *testing.T) {
	b := NewBipartite()
	_ = b.AddLeft(1, 5)
	_ = b.AddRight(2, 7)
	c := b.Solve()
	if len(c.Left) != 0 || len(c.Right) != 0 || c.Weight != 0 {
		t.Errorf("isolated vertices must not appear in cover: %+v", c)
	}
}

func TestBipartiteZeroWeightPreferred(t *testing.T) {
	b := NewBipartite()
	_ = b.AddLeft(1, 0)
	_ = b.AddRight(1, 3)
	_ = b.Connect(1, 1)
	c := b.Solve()
	if c.Weight != 0 {
		t.Errorf("cover weight = %d, want 0 (zero-weight query)", c.Weight)
	}
	if !c.ContainsLeft(1) {
		t.Errorf("zero-weight left vertex should cover the edge: %+v", c)
	}
}

func TestBipartiteDuplicateVertexRejected(t *testing.T) {
	b := NewBipartite()
	if err := b.AddLeft(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLeft(1, 2); err == nil {
		t.Error("duplicate left vertex should fail")
	}
	if err := b.AddRight(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRight(1, 2); err == nil {
		t.Error("duplicate right vertex should fail")
	}
	if b.AddLeft(2, -1) == nil || b.AddRight(2, -1) == nil {
		t.Error("a negative weight should fail")
	}
}

// TestBipartiteEpochWrap: when the search epoch wraps to zero, a vertex
// no search ever reached (mark zero, here the isolated right vertex 3)
// must not read as reached by the new one.
func TestBipartiteEpochWrap(t *testing.T) {
	b := NewBipartite()
	_ = b.AddLeft(1, 2)
	_ = b.AddLeft(2, 5)
	_ = b.AddRight(1, 3)
	_ = b.AddRight(2, 0)
	_ = b.AddRight(3, 4)
	_ = b.Connect(1, 1)
	_ = b.Connect(2, 2)
	want := b.Solve()
	b.epoch = math.MaxUint32
	if got := b.Solve(); !sameCover(got, want) {
		t.Fatalf("cover after the epoch wrapped = %+v, want %+v", got, want)
	}
}

func TestBipartiteConnectUnknownVertex(t *testing.T) {
	b := NewBipartite()
	_ = b.AddLeft(1, 1)
	if err := b.Connect(1, 99); err == nil {
		t.Error("connect to unknown right vertex should fail")
	}
	if err := b.Connect(99, 1); err == nil {
		t.Error("connect from unknown left vertex should fail")
	}
}

func TestBipartiteDuplicateEdgeIgnored(t *testing.T) {
	b := NewBipartite()
	_ = b.AddLeft(1, 3)
	_ = b.AddRight(1, 5)
	_ = b.Connect(1, 1)
	_ = b.Connect(1, 1)
	if got := b.DegreeLeft(1); got != 1 {
		t.Errorf("DegreeLeft = %d, want 1", got)
	}
	c := b.Solve()
	if c.Weight != 3 {
		t.Errorf("cover weight = %d, want 3", c.Weight)
	}
}

func TestBipartiteRemoveLeftRecomputes(t *testing.T) {
	b := NewBipartite()
	_ = b.AddLeft(1, 10)
	_ = b.AddRight(1, 4)
	_ = b.Connect(1, 1)
	if c := b.Solve(); c.Weight != 4 {
		t.Fatalf("cover weight = %d, want 4", c.Weight)
	}
	b.RemoveLeft(1)
	if c := b.Solve(); c.Weight != 0 {
		t.Errorf("cover weight after removal = %d, want 0", c.Weight)
	}
	if _, ok := b.left[1]; ok {
		t.Error("left vertex still present after removal")
	}
	if got := len(b.verts[b.right[1]].arcs); got != 0 {
		t.Errorf("right degree = %d, want 0", got)
	}
}

func TestBipartiteRemoveRightRecomputes(t *testing.T) {
	b := NewBipartite()
	_ = b.AddLeft(1, 2)
	_ = b.AddRight(1, 1)
	_ = b.AddRight(2, 1)
	_ = b.Connect(1, 1)
	_ = b.Connect(1, 2)
	if c := b.Solve(); c.Weight != 2 {
		t.Fatalf("cover weight = %d, want 2", c.Weight)
	}
	b.RemoveRight(1)
	if c := b.Solve(); c.Weight != 1 {
		t.Errorf("cover weight = %d, want 1 (only u2 remains)", c.Weight)
	}
}

func TestBipartiteNeighbors(t *testing.T) {
	b := NewBipartite()
	_ = b.AddLeft(5, 1)
	_ = b.AddRight(2, 1)
	_ = b.AddRight(9, 1)
	_ = b.Connect(5, 9)
	_ = b.Connect(5, 2)
	if got := b.DegreeLeft(5); got != 2 {
		t.Fatalf("DegreeLeft = %d, want 2", got)
	}
	// Removing a neighbor detaches its arc from the left vertex, and the
	// freed arc slot is the one the next edge takes.
	b.RemoveRight(9)
	if got := b.DegreeLeft(5); got != 1 {
		t.Fatalf("DegreeLeft after removing a neighbor = %d, want 1", got)
	}
	_ = b.AddRight(9, 1)
	_ = b.Connect(5, 9)
	if got := b.DegreeLeft(5); got != 2 || len(b.arcs) != 2 {
		t.Errorf("DegreeLeft = %d over %d arc slots, want 2 over 2", got, len(b.arcs))
	}
	checkInvariants(t, b)
	if got := b.DegreeLeft(99); got != 0 {
		t.Errorf("DegreeLeft of an absent key = %d, want 0", got)
	}
}

// TestBipartiteMatchesBruteForce cross-validates the flow-based cover
// against exhaustive enumeration on random small graphs.
func TestBipartiteMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nLeft := rng.Intn(7) + 1
		nRight := rng.Intn(7) + 1
		b, ref := NewBipartite(), newRefBipartite()
		leftW := make(map[int64]int64)
		rightW := make(map[int64]int64)
		for i := 0; i < nLeft; i++ {
			w := int64(rng.Intn(30))
			leftW[int64(i)] = w
			if err := b.AddLeft(int64(i), w); err != nil {
				t.Fatal(err)
			}
			_ = ref.AddLeft(int64(i), w)
		}
		for i := 0; i < nRight; i++ {
			w := int64(rng.Intn(30))
			rightW[int64(i)] = w
			if err := b.AddRight(int64(i), w); err != nil {
				t.Fatal(err)
			}
			_ = ref.AddRight(int64(i), w)
		}
		var edges [][2]int64
		for i := 0; i < nLeft; i++ {
			for j := 0; j < nRight; j++ {
				if rng.Float64() < 0.35 {
					edges = append(edges, [2]int64{int64(i), int64(j)})
					if err := b.Connect(int64(i), int64(j)); err != nil {
						t.Fatal(err)
					}
					_ = ref.Connect(int64(i), int64(j))
				}
			}
		}
		c := b.Solve()
		checkCoverValid(t, c, edges)
		want := bruteCover(t, leftW, rightW, edges)
		if ref := ref.Solve(); !sameCover(c, want) || !sameCover(ref, want) {
			t.Fatalf("trial %d: cover %+v, reference %+v, brute force %+v (edges %v, lw %v, rw %v)",
				trial, c, ref, want, edges, leftW, rightW)
		}
	}
}

// TestBipartiteIncrementalMatchesFresh interleaves vertex/edge additions
// and removals with Solve calls and checks the final answer equals a
// from-scratch solver on the surviving graph.
func TestBipartiteIncrementalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 80; trial++ {
		b := NewBipartite()
		leftW := make(map[int64]int64)
		rightW := make(map[int64]int64)
		type edgeKey = [2]int64
		liveEdges := make(map[edgeKey]bool)
		nextL, nextR := int64(0), int64(0)

		for step := 0; step < 60; step++ {
			switch op := rng.Intn(12); {
			case op < 3:
				if len(leftW) >= 9 { // keep brute-force enumeration tractable
					continue
				}
				w := int64(rng.Intn(25))
				leftW[nextL] = w
				_ = b.AddLeft(nextL, w)
				nextL++
			case op < 6:
				w := int64(rng.Intn(25))
				rightW[nextR] = w
				_ = b.AddRight(nextR, w)
				nextR++
			case op < 10:
				if nextL == 0 || nextR == 0 {
					continue
				}
				l := int64(rng.Intn(int(nextL)))
				r := int64(rng.Intn(int(nextR)))
				if _, okL := leftW[l]; !okL {
					continue
				}
				if _, okR := rightW[r]; !okR {
					continue
				}
				if err := b.Connect(l, r); err != nil {
					t.Fatal(err)
				}
				liveEdges[edgeKey{l, r}] = true
			case op < 11:
				if nextL == 0 {
					continue
				}
				l := int64(rng.Intn(int(nextL)))
				if _, ok := leftW[l]; !ok {
					continue
				}
				b.RemoveLeft(l)
				delete(leftW, l)
				for ek := range liveEdges {
					if ek[0] == l {
						delete(liveEdges, ek)
					}
				}
			default:
				if nextR == 0 {
					continue
				}
				r := int64(rng.Intn(int(nextR)))
				if _, ok := rightW[r]; !ok {
					continue
				}
				b.RemoveRight(r)
				delete(rightW, r)
				for ek := range liveEdges {
					if ek[1] == r {
						delete(liveEdges, ek)
					}
				}
			}
			if rng.Intn(4) == 0 {
				b.Solve()
			}
		}

		got := b.Solve()
		var edges [][2]int64
		for ek := range liveEdges {
			edges = append(edges, ek)
		}
		checkCoverValid(t, got, edges)
		checkInvariants(t, b)
		if want := bruteCover(t, leftW, rightW, edges); !sameCover(got, want) {
			t.Fatalf("trial %d: incremental cover %+v != brute force %+v", trial, got, want)
		}
	}
}

func TestCoverContainsHelpers(t *testing.T) {
	c := Cover{Left: []int64{1, 5, 9}, Right: []int64{2}}
	if !c.ContainsLeft(5) || c.ContainsLeft(4) {
		t.Error("ContainsLeft wrong")
	}
	if (Cover{}).ContainsLeft(1) {
		t.Error("ContainsLeft on an empty cover")
	}
}
