package htm

import (
	"fmt"
	"sort"

	"github.com/deltacache/delta/internal/geom"
)

// WeightFunc assigns a non-negative weight to a trixel, typically the
// integrated data density over its area. A partition keeps the heaviest
// trixels as data objects, and each object's size follows its weight.
type WeightFunc func(Trixel) float64

// Partition decomposes the sphere into exactly N data objects, all
// trixels of one HTM level (see BuildLeveled). A level has 8·4^k
// trixels, so the partition keeps the N heaviest and leaves the rest
// *unassigned*: they carry no data object of their own (the paper
// likewise ignores partitions "which weren't queried at all") and map to
// the nearest assigned object so that every sky position still resolves
// to an object.
type Partition struct {
	n      int
	leaves []leaf // all leaf trixels of the tree
	root   [8]*pnode
	// objects[i] is the representative trixel for object index i.
	objects []Trixel
}

type leaf struct {
	trixel Trixel
	weight float64
	objIdx int // -1 while unassigned
}

type pnode struct {
	trixel   Trixel
	geo      geometry
	children *[4]*pnode // nil for leaves
	leafIdx  int        // index into Partition.leaves for leaves, -1 otherwise
}

func newPnode(t Trixel) *pnode {
	return &pnode{trixel: t, geo: geometryOf(&t), leafIdx: -1}
}

// BuildLeveled decomposes the sphere at the smallest uniform HTM level
// with at least n trixels and keeps the n heaviest (by weight) as data
// objects — exactly the paper's construction: "we used a level that
// consisted of 68 partitions (ignoring some which weren't queried at
// all)". The dropped trixels map to the nearest kept object. Object
// sizes then vary with density (the paper's 50 MB – 90 GB spread)
// because partitions are equi-area, not equi-weight.
func BuildLeveled(weight WeightFunc, n int) (*Partition, error) {
	if n < 8 {
		return nil, fmt.Errorf("htm: partition needs at least 8 objects, got %d", n)
	}
	level := 0
	count := 8
	for count < n {
		level++
		count *= 4
		if level > 12 {
			return nil, fmt.Errorf("htm: %d objects needs an absurd level", n)
		}
	}
	if weight == nil {
		weight = func(t Trixel) float64 { return t.AreaSr() }
	}

	p := &Partition{n: n}
	var leaves []*pnode
	for i, r := range Roots() {
		node := newPnode(r)
		p.root[i] = node
		leaves = append(leaves, node)
	}
	for l := 0; l < level; l++ {
		next := make([]*pnode, 0, len(leaves)*4)
		for _, nd := range leaves {
			ch := nd.trixel.Children()
			var kids [4]*pnode
			for i := range ch {
				kids[i] = newPnode(ch[i])
			}
			nd.children = &kids
			next = append(next, kids[0], kids[1], kids[2], kids[3])
		}
		leaves = next
	}
	p.leaves = make([]leaf, len(leaves))
	for i, nd := range leaves {
		nd.leafIdx = i
		w := weight(nd.trixel)
		if w < 0 {
			w = 0
		}
		p.leaves[i] = leaf{trixel: nd.trixel, weight: w, objIdx: -1}
	}
	p.assignObjects()
	return p, nil
}

// assignObjects picks the n heaviest leaves as data objects (stable
// numbering by trixel ID) and maps every other leaf to the nearest
// assigned object.
func (p *Partition) assignObjects() {
	n := p.n
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
		p.leaves[i].objIdx = p.nearestObject(p.leaves[i].trixel.Center())
	}
}

// N returns the number of data objects.
func (p *Partition) N() int { return p.n }

// Objects returns the representative trixel of each object, indexed by
// object index.
func (p *Partition) Objects() []Trixel {
	out := make([]Trixel, len(p.objects))
	copy(out, p.objects)
	return out
}

// ObjectTrixelID returns the trixel ID of the object at index i,
// without copying the whole representative-trixel slice the way
// Objects does — births at scale call this per ingested object.
func (p *Partition) ObjectTrixelID(i int) uint64 { return p.objects[i].ID }

// ObjectFor returns the object index (0..N-1) owning the sky position v.
func (p *Partition) ObjectFor(v geom.Vec3) int {
	v = v.Normalize()
	var cur *pnode
	for _, r := range p.root {
		if r.trixel.Contains(v) {
			cur = r
			break
		}
	}
	if cur == nil {
		// Numerically outside all roots; snap to nearest root center.
		best := p.root[0]
		for _, r := range p.root[1:] {
			if r.trixel.Center().Dot(v) > best.trixel.Center().Dot(v) {
				best = r
			}
		}
		cur = best
	}
	for cur.children != nil {
		next := (*pnode)(nil)
		for _, ch := range cur.children {
			if ch.trixel.Contains(v) {
				next = ch
				break
			}
		}
		if next == nil {
			// Crack between children: snap to nearest child center.
			best := cur.children[0]
			for _, ch := range cur.children[1:] {
				if ch.trixel.Center().Dot(v) > best.trixel.Center().Dot(v) {
					best = ch
				}
			}
			next = best
		}
		cur = next
	}
	return p.leaves[cur.leafIdx].objIdx
}

// Cover returns the sorted, de-duplicated object indices whose trixels
// may intersect the cap. The result is conservative: it includes every
// object that truly intersects, and may include near misses.
func (p *Partition) Cover(c geom.Cap) []int {
	ct := prepareCap(c)
	seen := make(map[int]struct{})
	var walk func(nd *pnode)
	walk = func(nd *pnode) {
		if !ct.intersects(&nd.trixel, &nd.geo) {
			return
		}
		if nd.children == nil {
			seen[p.leaves[nd.leafIdx].objIdx] = struct{}{}
			return
		}
		for _, ch := range nd.children {
			walk(ch)
		}
	}
	for _, r := range p.root {
		walk(r)
	}
	out := make([]int, 0, len(seen))
	for idx := range seen {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// Weights returns the build-time weight of each object's representative
// trixel, indexed by object index. Callers use this to derive object
// sizes proportional to data density.
func (p *Partition) Weights() []float64 {
	out := make([]float64, p.n)
	for i := range p.leaves {
		if idx := p.leaves[i].objIdx; idx >= 0 && p.leaves[i].trixel.ID == p.objects[idx].ID {
			out[idx] = p.leaves[i].weight
		}
	}
	return out
}

func (p *Partition) nearestObject(v geom.Vec3) int {
	best := 0
	bestDot := -2.0
	for i, t := range p.objects {
		if d := t.Center().Dot(v); d > bestDot {
			bestDot = d
			best = i
		}
	}
	return best
}
