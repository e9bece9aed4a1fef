package htm

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/deltacache/delta/internal/geom"
)

// WeightFunc assigns a non-negative weight to a trixel, typically the
// integrated data density over its area. A partition keeps the heaviest
// trixels as data objects, and each object's size follows its weight.
type WeightFunc func(Trixel) float64

// Partition decomposes the sphere into exactly N data objects, all
// trixels of one HTM level (see Build). When N is the level's trixel
// count every trixel is an object, indexed by trixelID − 8·4^level.
// Otherwise the partition keeps the N heaviest and leaves the rest
// *unassigned*: they carry no data object of their own (the paper
// likewise ignores partitions "which weren't queried at all") and map
// to the nearest kept object, so every sky position still resolves to
// an object.
//
// The mesh is one flat table: the trixels of levels
// 0..min(level, maxGeoLevel) and their cover geometry, in geoIndex
// order, so the children of trixel id are the entries 4·id … 4·id+3 one
// level down. Walks below maxGeoLevel derive trixels and geometry from
// the vertices they already hold.
type Partition struct {
	level int
	first uint64 // ID of the first trixel at this level: 8·4^level

	trixels []Trixel
	geo     []geometry // geo[i] is trixels[i]'s cover geometry

	weights []float64 // per object
	// ids holds each object's trixel ID, and objOf maps a level trixel
	// (ID − first) to its object; both are nil when every trixel is an
	// object.
	ids   []uint64
	objOf []int32
}

// maxGeoLevel is the deepest level the partition table stores: 40 bytes
// of geometry and 80 of vertices a trixel, 21 MB for all eight levels.
const maxGeoLevel = 7

// geoIndex is the table position of the trixel id at the given level:
// the Σ_{l<level} 8·4^l trixels of the levels above, plus id − 8·4^level.
func geoIndex(id uint64, level int) uint64 { return id - (16<<(2*uint(level))+8)/3 }

// LevelObjects returns the trixel count of an HTM level: 8·4^level.
func LevelObjects(level int) int { return 8 << (2 * uint(level)) }

// maxLevel is the deepest level Build decomposes at.
const maxLevel = 12

// LevelFor returns the level Build uses for n objects: the smallest with
// at least n trixels, capped at maxLevel. exact reports whether that
// level has exactly n trixels, so that every trixel is an object.
func LevelFor(n int) (level int, exact bool) {
	for level < maxLevel && LevelObjects(level) < n {
		level++
	}
	return level, LevelObjects(level) == n
}

// Build decomposes the sphere at the smallest HTM level with at least n
// trixels. When the level has exactly n, every trixel is an object.
// Otherwise Build keeps the n heaviest (by weight, then trixel ID) as
// data objects — exactly the paper's construction: "we used a level
// that consisted of 68 partitions (ignoring some which weren't queried
// at all)" — numbered in trixel-ID order; the dropped trixels map to
// the kept object with the nearest center. Object sizes then vary with
// density (the paper's 50 MB – 90 GB spread) because partitions are
// equi-area, not equi-weight. The weight function is evaluated once per
// level trixel, in ID order; nil weighs by area.
func Build(weight WeightFunc, n int) (*Partition, error) {
	if n < 8 {
		return nil, fmt.Errorf("htm: partition needs at least 8 objects, got %d", n)
	}
	level, _ := LevelFor(n)
	if LevelObjects(level) < n {
		return nil, fmt.Errorf("htm: %d objects needs an absurd level", n)
	}
	if weight == nil {
		weight = func(t Trixel) float64 { return t.AreaSr() }
	}
	count := LevelObjects(level)
	top := min(level, maxGeoLevel)
	size := geoIndex(uint64(LevelObjects(top+1)), top+1)
	p := &Partition{
		level:   level,
		first:   uint64(count),
		trixels: make([]Trixel, size),
		geo:     make([]geometry, size),
	}
	all := make([]float64, count)
	var centers []geom.Vec3 // of every level trixel, when only some are kept
	if n < count {
		centers = make([]geom.Vec3, count)
	}
	var walk func(t Trixel, l int)
	walk = func(t Trixel, l int) {
		if l <= top {
			i := geoIndex(t.ID, l)
			p.trixels[i], p.geo[i] = t, geometryOf(&t)
		}
		if l == level {
			w := weight(t)
			if w < 0 {
				w = 0
			}
			all[t.ID-p.first] = w
			if centers != nil {
				centers[t.ID-p.first] = t.Center()
			}
			return
		}
		for _, ch := range t.Children() {
			walk(ch, l+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	if centers == nil {
		p.weights = all
	} else {
		p.keep(all, centers, n)
	}
	return p, nil
}

// keep makes the n heaviest level trixels the objects, numbered in
// trixel-ID order, and maps every other trixel to the kept object whose
// center is nearest its own.
func (p *Partition) keep(all []float64, centers []geom.Vec3, n int) {
	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if wa, wb := all[order[a]], all[order[b]]; wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	kept := order[:n]
	slices.Sort(kept)
	p.weights = make([]float64, n)
	p.ids = make([]uint64, n)
	p.objOf = make([]int32, len(all))
	for i := range p.objOf {
		p.objOf[i] = -1
	}
	for obj, i := range kept {
		p.weights[obj] = all[i]
		p.ids[obj] = p.first + uint64(i)
		p.objOf[i] = int32(obj)
	}
	for i, obj := range p.objOf {
		if obj >= 0 {
			continue
		}
		best, bestDot := 0, -2.0
		for o, k := range kept {
			if d := centers[k].Dot(centers[i]); d > bestDot {
				best, bestDot = o, d
			}
		}
		p.objOf[i] = int32(best)
	}
}

// N returns the number of data objects.
func (p *Partition) N() int { return len(p.weights) }

// ObjectTrixelID returns the trixel ID of the object at index i.
func (p *Partition) ObjectTrixelID(i int) uint64 {
	if p.ids != nil {
		return p.ids[i]
	}
	return p.first + uint64(i)
}

// Weights returns the build-time weight of each object's trixel,
// indexed by object index. Callers use this to derive object sizes
// proportional to data density.
func (p *Partition) Weights() []float64 { return slices.Clone(p.weights) }

// object returns the object owning the level trixel id.
func (p *Partition) object(id uint64) int {
	if p.objOf != nil {
		return int(p.objOf[id-p.first])
	}
	return int(id - p.first)
}

// ObjectFor returns the object index (0..N-1) owning the sky position v.
// At each level the descent takes the first child containing v, or else
// the child whose center is nearest v.
func (p *Partition) ObjectFor(v geom.Vec3) int {
	v = v.Normalize()
	top := min(p.level, maxGeoLevel)
	kids := p.trixels[:8]
	var cur *Trixel
	for l := 0; ; l++ {
		cur = &kids[pick(kids, v)]
		if l == top {
			break
		}
		c := geoIndex(4*cur.ID, l+1)
		kids = p.trixels[c : c+4]
	}
	t := *cur
	for l := top; l < p.level; l++ {
		ch := t.Children()
		t = ch[pick(ch[:], v)]
	}
	return p.object(t.ID)
}

// pick returns the index of the first of kids that contains v or, when
// v falls in the numerical cracks between their edge planes, of the one
// whose center is nearest.
func pick(kids []Trixel, v geom.Vec3) int {
	for i := range kids {
		if kids[i].Contains(v) {
			return i
		}
	}
	best, bestDot := 0, math.Inf(-1)
	for i := range kids {
		if d := kids[i].Center().Dot(v); d > bestDot {
			best, bestDot = i, d
		}
	}
	return best
}

// Cover returns the sorted, de-duplicated object indices whose trixels
// may intersect the cap. The result is conservative: it includes every
// object that truly intersects, and may include near misses. The walk
// visits children in trixel-ID order, so when every trixel is an object
// the result needs no sort pass.
func (p *Partition) Cover(c geom.Cap) []int {
	ct := prepareCap(c)
	// Collect on the stack; the result is one right-sized copy.
	var buf [64]int
	out := buf[:0]
	for i := range 8 {
		out = p.cover(&ct, &p.trixels[i], 0, out)
	}
	if p.objOf != nil {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	if len(out) == 0 {
		return nil
	}
	return slices.Clone(out)
}

func (p *Partition) cover(ct *capTest, t *Trixel, level int, out []int) []int {
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
		return append(out, p.object(t.ID))
	}
	if level < maxGeoLevel {
		c := geoIndex(4*t.ID, level+1)
		for i := c; i < c+4; i++ {
			out = p.cover(ct, &p.trixels[i], level+1, out)
		}
		return out
	}
	kids := t.Children()
	for i := range kids {
		out = p.cover(ct, &kids[i], level+1, out)
	}
	return out
}
