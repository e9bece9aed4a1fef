package htm

import (
	"fmt"

	"github.com/deltacache/delta/internal/geom"
)

// DensePartition is the complete uniform HTM decomposition at a fixed
// level: every trixel of that level is a data object, indexed by
// `trixelID - firstID` so no per-object tree, map, or trixel vertex set
// is ever materialized. BuildLeveled stores the whole trixel tree
// (one pnode per trixel, three vertices each) and assigns unchosen
// leaves by an O(n²) nearest-object scan — fine at the paper's 68
// objects, hopeless at a million. The dense form keeps only one float64
// weight per object (8 bytes), plus the cover geometry of the trixels
// at levels 0..min(level, maxGeoLevel), and descends the implicit tree
// on the fly for lookups and covers, which is what lets the
// million-object soak build a catalog in O(n) time and O(n) small
// memory.
type DensePartition struct {
	level   int
	n       int
	first   uint64 // ID of the first trixel at this level: 8·4^level
	weights []float64
	// geo holds the geometry of every trixel at levels
	// 0..min(level, maxGeoLevel), in level then ID order (see geoIndex):
	// 40 bytes a trixel, 7 MB when all eight levels are present.
	geo []geometry
}

// maxGeoLevel is the deepest level whose trixel geometry a dense
// partition stores; covers of finer meshes derive it from the vertices
// they already hold.
const maxGeoLevel = 7

// geoIndex is the position in DensePartition.geo of the trixel id at
// the given level: the Σ_{l<level} 8·4^l trixels of the levels above,
// plus id − 8·4^level.
func geoIndex(id uint64, level int) uint64 { return id - (16<<(2*uint(level))+8)/3 }

// DenseLevelObjects returns the object count of the complete
// decomposition at the given HTM level: 8·4^level.
func DenseLevelObjects(level int) int { return 8 << (2 * uint(level)) }

// BuildDense builds the complete uniform partition whose object count
// is exactly n. Because the decomposition is complete, n must be of the
// form 8·4^level (8, 32, 128, ..., 2097152 at level 9); anything else
// is an error naming the nearest valid counts rather than a silent
// round. The weight function is evaluated once per trixel in ID order.
func BuildDense(weight WeightFunc, n int) (*DensePartition, error) {
	level := -1
	for l := 0; l <= 12; l++ {
		c := DenseLevelObjects(l)
		if c == n {
			level = l
			break
		}
		if c > n {
			return nil, fmt.Errorf("htm: dense partition needs 8·4^level objects (%d or %d, not %d)",
				DenseLevelObjects(max(l-1, 0)), c, n)
		}
	}
	if level < 0 {
		return nil, fmt.Errorf("htm: dense partition of %d objects exceeds level 12", n)
	}
	if weight == nil {
		weight = func(t Trixel) float64 { return t.AreaSr() }
	}
	geoLevels := min(level, maxGeoLevel)
	p := &DensePartition{
		level:   level,
		n:       n,
		first:   8 << (2 * uint(level)),
		weights: make([]float64, n),
		// Sized to where the first trixel below geoLevels would go.
		geo: make([]geometry, geoIndex(8<<(2*uint(geoLevels+1)), geoLevels+1)),
	}
	var walk func(t Trixel, l int)
	walk = func(t Trixel, l int) {
		if l <= geoLevels {
			p.geo[geoIndex(t.ID, l)] = geometryOf(&t)
		}
		if l == level {
			w := weight(t)
			if w < 0 {
				w = 0
			}
			p.weights[t.ID-p.first] = w
			return
		}
		for _, ch := range t.Children() {
			walk(ch, l+1)
		}
	}
	for _, r := range Roots() {
		walk(r, 0)
	}
	return p, nil
}

// N returns the number of data objects.
func (p *DensePartition) N() int { return p.n }

// Level returns the uniform HTM level of the decomposition.
func (p *DensePartition) Level() int { return p.level }

// ObjectTrixelID returns the trixel ID of the object at index i.
func (p *DensePartition) ObjectTrixelID(i int) uint64 { return p.first + uint64(i) }

// Weights returns the build-time weight of each object, indexed by
// object index.
func (p *DensePartition) Weights() []float64 {
	out := make([]float64, len(p.weights))
	copy(out, p.weights)
	return out
}

// ObjectFor returns the object index (0..N-1) owning the sky position
// v, descending the implicit trixel tree with the same nearest-center
// fallbacks as Partition.ObjectFor for points that land in numerical
// cracks.
func (p *DensePartition) ObjectFor(v geom.Vec3) int {
	v = v.Normalize()
	cur, err := Locate(v, p.level)
	if err != nil {
		// Numerically outside all roots; descend from the nearest root.
		roots := Roots()
		cur = roots[0]
		for _, r := range roots[1:] {
			if r.Center().Dot(v) > cur.Center().Dot(v) {
				cur = r
			}
		}
		for l := 0; l < p.level; l++ {
			cur = nearestChild(cur.Children(), v)
		}
	}
	return int(cur.ID - p.first)
}

// Cover returns the object indices whose trixels may intersect the cap.
// The walk visits children in trixel-ID order, so the result is already
// sorted and duplicate-free — no map or sort pass, which matters when
// drift-heavy workloads churn the cover cache.
func (p *DensePartition) Cover(c geom.Cap) []int {
	ct := prepareCap(c)
	var out []int
	for i := range roots {
		out = p.cover(&ct, &roots[i], 0, out)
	}
	return out
}

func (p *DensePartition) cover(ct *capTest, t *Trixel, level int, out []int) []int {
	var g *geometry
	if level <= maxGeoLevel {
		g = &p.geo[geoIndex(t.ID, level)]
	} else {
		derived := geometryOf(t)
		g = &derived
	}
	if !ct.intersects(t, g) {
		return out
	}
	if level == p.level {
		return append(out, int(t.ID-p.first))
	}
	kids := t.Children()
	for i := range kids {
		out = p.cover(ct, &kids[i], level+1, out)
	}
	return out
}
