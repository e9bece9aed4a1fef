package htm

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/deltacache/delta/internal/geom"
)

// gaussianWeight is a density with a hotspot near (RA 180, Dec 0).
func gaussianWeight(t Trixel) float64 {
	hot := geom.FromRADec(180, 0)
	d := t.Center().AngleTo(hot)
	return t.AreaSr() * (0.05 + math.Exp(-d*d/0.3))
}

// trixelOf rebuilds the trixel with the given ID from its root.
func trixelOf(id uint64) Trixel {
	level := Trixel{ID: id}.Level()
	t := roots[id>>(2*uint(level))-8]
	for l := level - 1; l >= 0; l-- {
		t = t.Children()[id>>(2*uint(l))&3]
	}
	return t
}

// refPartition is the pointer-tree partition Build replaced, kept as
// the oracle Build must match: one node per trixel, each leaf holding
// its weight and owning object.
type refPartition struct {
	n       int
	leaves  []leaf
	root    [8]*pnode
	objects []Trixel // objects[i] is object i's trixel
}

type leaf struct {
	trixel Trixel
	weight float64
	objIdx int // -1 while unassigned
}

type pnode struct {
	trixel   Trixel
	children *[4]*pnode // nil for leaves
	leafIdx  int        // index into refPartition.leaves for leaves, -1 otherwise
}

// leveledReference builds the smallest level with at least n trixels as
// a pointer tree, keeps the n heaviest leaves (by weight, then ID) as
// objects numbered in ID order, and maps every other leaf to the kept
// object with the nearest center.
func leveledReference(weight WeightFunc, n int) *refPartition {
	level, count := 0, 8
	for count < n {
		level++
		count *= 4
	}
	if weight == nil {
		weight = func(t Trixel) float64 { return t.AreaSr() }
	}
	p := &refPartition{n: n}
	var leaves []*pnode
	for i, r := range Roots() {
		p.root[i] = &pnode{trixel: r, leafIdx: -1}
		leaves = append(leaves, p.root[i])
	}
	for l := 0; l < level; l++ {
		next := make([]*pnode, 0, len(leaves)*4)
		for _, nd := range leaves {
			var kids [4]*pnode
			for i, ch := range nd.trixel.Children() {
				kids[i] = &pnode{trixel: ch, leafIdx: -1}
			}
			nd.children = &kids
			next = append(next, kids[:]...)
		}
		leaves = next
	}
	p.leaves = make([]leaf, len(leaves))
	for i, nd := range leaves {
		nd.leafIdx = i
		p.leaves[i] = leaf{trixel: nd.trixel, weight: max(weight(nd.trixel), 0), objIdx: -1}
	}
	order := make([]int, len(p.leaves))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := p.leaves[order[a]], p.leaves[order[b]]
		if la.weight != lb.weight {
			return la.weight > lb.weight
		}
		return la.trixel.ID < lb.trixel.ID
	})
	chosen := append([]int(nil), order[:n]...)
	sort.Slice(chosen, func(a, b int) bool {
		return p.leaves[chosen[a]].trixel.ID < p.leaves[chosen[b]].trixel.ID
	})
	p.objects = make([]Trixel, n)
	for objIdx, leafIdx := range chosen {
		p.leaves[leafIdx].objIdx = objIdx
		p.objects[objIdx] = p.leaves[leafIdx].trixel
	}
	for i := range p.leaves {
		if p.leaves[i].objIdx >= 0 {
			continue
		}
		v, best, bestDot := p.leaves[i].trixel.Center(), 0, -2.0
		for o, t := range p.objects {
			if d := t.Center().Dot(v); d > bestDot {
				best, bestDot = o, d
			}
		}
		p.leaves[i].objIdx = best
	}
	return p
}

func (p *refPartition) weights() []float64 {
	out := make([]float64, p.n)
	for _, l := range p.leaves {
		if p.objects[l.objIdx].ID == l.trixel.ID {
			out[l.objIdx] = l.weight
		}
	}
	return out
}

func (p *refPartition) objectFor(v geom.Vec3) int {
	v = v.Normalize()
	var cur *pnode
	for _, r := range p.root {
		if r.trixel.Contains(v) {
			cur = r
			break
		}
	}
	if cur == nil {
		cur = p.root[0]
		for _, r := range p.root[1:] {
			if r.trixel.Center().Dot(v) > cur.trixel.Center().Dot(v) {
				cur = r
			}
		}
	}
	for cur.children != nil {
		var next *pnode
		for _, ch := range cur.children {
			if ch.trixel.Contains(v) {
				next = ch
				break
			}
		}
		if next == nil {
			next = cur.children[0]
			for _, ch := range cur.children[1:] {
				if ch.trixel.Center().Dot(v) > next.trixel.Center().Dot(v) {
					next = ch
				}
			}
		}
		cur = next
	}
	return p.leaves[cur.leafIdx].objIdx
}

// cover walks the tree on the angle-arithmetic cap test.
func (p *refPartition) cover(c geom.Cap) []int {
	var out []int
	var walk func(nd *pnode)
	walk = func(nd *pnode) {
		if !intersectsCapReference(nd.trixel, c) {
			return
		}
		if nd.children == nil {
			out = append(out, p.leaves[nd.leafIdx].objIdx)
			return
		}
		for _, ch := range nd.children {
			walk(ch)
		}
	}
	for _, r := range p.root {
		walk(r)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// hotspotBuild is one quick.Check input: a random hotspot density and
// an object count.
type hotspotBuild struct {
	Hot        geom.Vec3
	Width, Bg  float64
	N          int
	CapSeed    int64
	PointsSeed int64
}

func (hotspotBuild) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(hotspotBuild{
		Hot:        randomPoint(rng),
		Width:      0.01 + rng.Float64(),
		Bg:         rng.Float64() * 0.2,
		N:          8 + rng.Intn(693),
		CapSeed:    rng.Int63(),
		PointsSeed: rng.Int63(),
	})
}

func (h hotspotBuild) weight(t Trixel) float64 {
	d := t.Center().AngleTo(h.Hot)
	return t.AreaSr() * (h.Bg + math.Exp(-d*d/h.Width))
}

// TestQuickBuildMatchesReference: Build and the pointer-tree oracle
// agree on weights, object trixels, point location and covers.
func TestQuickBuildMatchesReference(t *testing.T) {
	prop := func(h hotspotBuild) bool {
		p, err := Build(h.weight, h.N)
		if err != nil {
			t.Log(err)
			return false
		}
		ref := leveledReference(h.weight, h.N)
		if p.N() != h.N || !slices.Equal(p.Weights(), ref.weights()) {
			t.Logf("n=%d: weights differ", h.N)
			return false
		}
		for i, tr := range ref.objects {
			if p.ObjectTrixelID(i) != tr.ID {
				t.Logf("n=%d: object %d is trixel %d, reference %d", h.N, i, p.ObjectTrixelID(i), tr.ID)
				return false
			}
		}
		rng := rand.New(rand.NewSource(h.PointsSeed))
		for i := 0; i < 2000; i++ {
			v := randomPoint(rng)
			if got, want := p.ObjectFor(v), ref.objectFor(v); got != want {
				t.Logf("n=%d, point %v: object %d, reference %d", h.N, v, got, want)
				return false
			}
		}
		for _, c := range coverCaps(rand.New(rand.NewSource(h.CapSeed)), p.level, 60) {
			if got, want := p.Cover(c), ref.cover(c); !slices.Equal(got, want) {
				t.Logf("n=%d, cap %+v: cover %v, reference %v", h.N, c, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 24, Rand: rand.New(rand.NewSource(33))}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildPartitionExactCounts builds the paper's object-set sizes
// (Section 6.2): each has exactly n objects and n weights, and every
// object owns the center of its own trixel.
func TestBuildPartitionExactCounts(t *testing.T) {
	for _, n := range []int{10, 20, 68, 91, 134, 285, 532} {
		p, err := Build(gaussianWeight, n)
		if err != nil {
			t.Fatalf("Build(%d): %v", n, err)
		}
		if p.N() != n || len(p.Weights()) != n {
			t.Fatalf("n=%d: N() = %d, %d weights", n, p.N(), len(p.Weights()))
		}
		for i := 0; i < n; i++ {
			if got := p.ObjectFor(trixelOf(p.ObjectTrixelID(i)).Center()); got != i {
				t.Fatalf("n=%d: object %d's center resolves to object %d", n, i, got)
			}
		}
	}
}

func TestBuildPartitionTooSmall(t *testing.T) {
	if _, err := Build(nil, 7); err == nil {
		t.Error("Build(7) should fail: fewer than 8 roots")
	}
	if _, err := Build(nil, LevelObjects(12)+1); err == nil {
		t.Error("Build past level 12 should fail")
	}
}

func TestLevelFor(t *testing.T) {
	for _, c := range []struct {
		n, level int
		exact    bool
	}{
		{8, 0, true}, {9, 1, false}, {32, 1, true}, {68, 2, false},
		{LevelObjects(5), 5, true}, {LevelObjects(5) + 1, 6, false},
		{LevelObjects(12), 12, true}, {LevelObjects(12) + 1, 12, false},
	} {
		if level, exact := LevelFor(c.n); level != c.level || exact != c.exact {
			t.Errorf("LevelFor(%d) = %d, %v; want %d, %v", c.n, level, exact, c.level, c.exact)
		}
	}
}

// TestBuildCompleteLevel: when n is a level's trixel count, every
// trixel is an object, indexed by trixel ID, and covers come out sorted
// without a sort pass.
func TestBuildCompleteLevel(t *testing.T) {
	p, err := Build(gaussianWeight, LevelObjects(3))
	if err != nil {
		t.Fatal(err)
	}
	if p.ids != nil || p.objOf != nil {
		t.Fatal("a complete level stored an object map")
	}
	for i := 0; i < p.N(); i++ {
		if got, want := p.ObjectTrixelID(i), uint64(LevelObjects(3)+i); got != want {
			t.Fatalf("object %d is trixel %d, want %d", i, got, want)
		}
	}
}

func TestObjectForCoversAllIndices(t *testing.T) {
	p, err := Build(gaussianWeight, 68)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	seen := make(map[int]bool)
	for i := 0; i < 20000; i++ {
		idx := p.ObjectFor(randomPoint(rng))
		if idx < 0 || idx >= 68 {
			t.Fatalf("ObjectFor returned out-of-range index %d", idx)
		}
		seen[idx] = true
	}
	// Dense sampling should hit the overwhelming majority of objects.
	if len(seen) < 60 {
		t.Errorf("only %d/68 objects ever selected; partition is degenerate", len(seen))
	}
}

func TestObjectForDeterministic(t *testing.T) {
	p, err := Build(gaussianWeight, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 500; i++ {
		v := randomPoint(rng)
		if a, b := p.ObjectFor(v), p.ObjectFor(v); a != b {
			t.Fatalf("ObjectFor not deterministic: %d vs %d", a, b)
		}
	}
}

func TestPartitionIsStableAcrossBuilds(t *testing.T) {
	a, err := Build(gaussianWeight, 68)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(gaussianWeight, 68)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		if a.ObjectTrixelID(i) != b.ObjectTrixelID(i) {
			t.Fatalf("object %d differs across builds: %d vs %d", i, a.ObjectTrixelID(i), b.ObjectTrixelID(i))
		}
	}
}

func TestCoverIncludesContainingObject(t *testing.T) {
	p, err := Build(gaussianWeight, 91)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		center := randomPoint(rng)
		c := geom.NewCap(center, rng.Float64()*5+0.1)
		cover := p.Cover(c)
		if len(cover) == 0 {
			t.Fatalf("empty cover for cap at %v", center)
		}
		// The object owning the cap center must be in the cover, unless
		// the center lies in an unassigned trixel that adopted a distant
		// owner; in that case at least the cover must be non-empty
		// (checked above). For assigned trixels, assert membership.
		owner := p.ObjectFor(center)
		if !slices.Contains(cover, owner) {
			// The owner may legitimately differ when the center's trixel
			// is unassigned; verify the owner's trixel really is far.
			if trixelOf(p.ObjectTrixelID(owner)).IntersectsCap(c) {
				t.Fatalf("cover %v misses intersecting owner %d", cover, owner)
			}
		}
	}
}

func TestCoverSortedAndUnique(t *testing.T) {
	p, err := Build(gaussianWeight, 68)
	if err != nil {
		t.Fatal(err)
	}
	c := geom.CapFromRADec(180, 0, 30)
	cover := p.Cover(c)
	for i := 1; i < len(cover); i++ {
		if cover[i] <= cover[i-1] {
			t.Fatalf("cover not sorted/unique: %v", cover)
		}
	}
}

func TestCoverGrowsWithRadius(t *testing.T) {
	p, err := Build(gaussianWeight, 134)
	if err != nil {
		t.Fatal(err)
	}
	small := len(p.Cover(geom.CapFromRADec(180, 0, 1)))
	big := len(p.Cover(geom.CapFromRADec(180, 0, 60)))
	if small > big {
		t.Errorf("cover shrank with radius: %d > %d", small, big)
	}
	if big < 10 {
		t.Errorf("60° cap covers only %d objects of 134", big)
	}
}

// unassigned is a level trixel Build left without an object of its own,
// with the nearest kept object it adopted.
type unassigned struct {
	trixel Trixel
	objIdx int
}

func unassignedTrixels(p *Partition) []unassigned {
	var out []unassigned
	for id := p.first; id < 2*p.first; id++ {
		if obj := p.object(id); p.ObjectTrixelID(obj) != id {
			out = append(out, unassigned{trixel: trixelOf(id), objIdx: obj})
		}
	}
	return out
}

// TestCoverOnUnassignedTrixels aims caps at the trixels Build dropped
// ("partitions which weren't queried at all"): a cap wholly inside an
// unassigned trixel must still cover the trixel's adopted owner, so
// every sky position stays queryable.
func TestCoverOnUnassignedTrixels(t *testing.T) {
	// 68 objects from the 128-trixel level: 60 trixels stay unassigned,
	// clustered away from the gaussian hotspot.
	p, err := Build(gaussianWeight, 68)
	if err != nil {
		t.Fatal(err)
	}
	dropped := unassignedTrixels(p)
	if len(dropped) != 60 {
		t.Fatalf("build dropped %d trixels, want 60", len(dropped))
	}
	for _, l := range dropped {
		if l.objIdx < 0 || l.objIdx >= p.N() {
			t.Fatalf("unassigned trixel %d has invalid adopted owner %d", l.trixel.ID, l.objIdx)
		}
		// A small cap at the unassigned trixel's center lies (mostly)
		// inside it; its cover must include the adopted owner even
		// though the owner's own trixel may be far away.
		cover := p.Cover(geom.NewCap(l.trixel.Center(), 0.5))
		if len(cover) == 0 {
			t.Fatalf("empty cover for cap on unassigned trixel %d", l.trixel.ID)
		}
		for _, idx := range cover {
			if idx < 0 || idx >= p.N() {
				t.Fatalf("cover contains invalid object index %d", idx)
			}
		}
		if !slices.Contains(cover, l.objIdx) {
			t.Errorf("cover %v of cap on unassigned trixel %d misses adopted owner %d",
				cover, l.trixel.ID, l.objIdx)
		}
	}
}

// TestCoverStraddlesAssignedBoundary spans caps across the border
// between an assigned and an unassigned trixel: the cover must include
// both the assigned object and the unassigned side's adopted owner,
// and must stay consistent with point location for positions inside
// the cap.
func TestCoverStraddlesAssignedBoundary(t *testing.T) {
	p, err := Build(gaussianWeight, 68)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	straddles := 0
	for _, l := range unassignedTrixels(p) {
		// A cap big enough to spill out of the trixel into neighbors.
		center := l.trixel.Center()
		c := geom.NewCap(center, 8)
		cover := p.Cover(c)
		// Point location of any position inside the cap must land in
		// the cover — including positions in the unassigned trixel
		// itself and in its (possibly assigned) neighbors.
		sawDistinct := make(map[int]bool)
		for i := 0; i < 64; i++ {
			v := center.Add(randomPoint(rng).Scale(0.1)).Normalize()
			if c.Contains(v) {
				owner := p.ObjectFor(v)
				sawDistinct[owner] = true
				if !slices.Contains(cover, owner) {
					t.Fatalf("position owned by %d inside cap not in cover %v", owner, cover)
				}
			}
		}
		if len(sawDistinct) > 1 {
			straddles++
		}
	}
	if straddles == 0 {
		t.Skip("no cap straddled distinct owners; enlarge radius")
	}
}

func TestWeightsMatchObjectCount(t *testing.T) {
	p, err := Build(gaussianWeight, 91)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Weights()
	if len(w) != 91 {
		t.Fatalf("len(Weights()) = %d, want 91", len(w))
	}
	positive := 0
	for _, x := range w {
		if x < 0 {
			t.Fatalf("negative weight %v", x)
		}
		if x > 0 {
			positive++
		}
	}
	if positive < 85 {
		t.Errorf("only %d/91 objects have positive weight", positive)
	}
}
