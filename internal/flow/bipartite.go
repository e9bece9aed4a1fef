// Package flow computes the minimum-weight vertex cover behind VCover's
// UpdateManager (Figures 4–5 of the paper) on the bipartite interaction
// graph of queries (left) and updates (right), incrementally: vertices
// and edges come and go between solves, and each solve keeps the flow
// of the last one and searches only for the additional augmenting paths.
//
// The reduction (Hochbaum 1997): source → left vertex with capacity
// w(left); right vertex → sink with capacity w(right); left → right with
// infinite capacity. After max flow, with R the set of vertices the
// source reaches in the residual graph, the minimum-weight cover is
//
//	{ left l : l ∉ R } ∪ { right r : r ∈ R }
//
// and its weight equals the max-flow value. No left → right edge can
// cross the cut, so every edge has an endpoint in the cover. R is the
// same for every maximum flow (it is the source side of the minimal
// minimum cut), so the cover depends only on the graph, never on which
// augmenting paths were found.
package flow

import (
	"fmt"
	"maps"
	"slices"
)

// vertex is one slot of Bipartite.verts. Its terminal edge is the
// source edge of a left vertex or the sink edge of a right one.
type vertex struct {
	key   int64
	w, f  int64   // terminal edge capacity and flow
	arcs  []int32 // incident arcs, indices into Bipartite.arcs
	right bool
	live  bool
	mark  uint32 // epoch of the last search that reached the vertex
	from  int32  // arc that search reached it by; -1: from the source
}

// arc is a left → right edge; li and ri are its positions in the arc
// lists of l and r, so either endpoint detaches it in O(1).
type arc struct {
	l, r   int32
	li, ri int32
	f      int64
}

// Bipartite maintains a weighted bipartite graph and answers
// minimum-weight vertex cover queries incrementally. Vertices are
// identified by caller-chosen int64 keys (query IDs and update IDs); the
// key spaces of the two sides are independent. Removed vertices and
// edges free their slots for reuse, so the footprint follows the live
// graph, not its history.
type Bipartite struct {
	left, right  map[int64]int32 // key → slot in verts
	verts        []vertex
	arcs         []arc
	freeV, freeA []int32 // released slots of verts and arcs
	epoch        uint32
	queue        []int32
}

// Cover is the result of a minimum-weight vertex cover computation.
type Cover struct {
	// Left and Right hold the keys of the cover members on each side,
	// sorted ascending.
	Left  []int64
	Right []int64
	// Weight is the total weight of the cover, equal to the max-flow
	// value.
	Weight int64
}

// ContainsLeft reports whether the left key is in the cover.
func (c Cover) ContainsLeft(key int64) bool {
	_, ok := slices.BinarySearch(c.Left, key)
	return ok
}

// NewBipartite returns an empty bipartite cover solver.
func NewBipartite() *Bipartite {
	return &Bipartite{left: make(map[int64]int32), right: make(map[int64]int32)}
}

// AddLeft inserts a left vertex with the given weight. Re-adding an
// existing key is an error: weights are immutable once attached.
func (b *Bipartite) AddLeft(key, weight int64) error {
	return b.add(b.left, "left", key, weight)
}

// AddRight inserts a right vertex with the given weight.
func (b *Bipartite) AddRight(key, weight int64) error {
	return b.add(b.right, "right", key, weight)
}

func (b *Bipartite) add(side map[int64]int32, name string, key, weight int64) error {
	if _, ok := side[key]; ok {
		return fmt.Errorf("flow: %s vertex %d already present", name, key)
	}
	if weight < 0 {
		return fmt.Errorf("flow: %s vertex %d has negative weight %d", name, key, weight)
	}
	v := alloc(&b.verts, &b.freeV)
	b.verts[v] = vertex{key: key, w: weight, arcs: b.verts[v].arcs[:0], right: name == "right", live: true}
	side[key] = v
	return nil
}

// alloc returns a released slot of s, or appends a new one.
func alloc[T any](s *[]T, free *[]int32) int32 {
	if n := len(*free); n > 0 {
		i := (*free)[n-1]
		*free = (*free)[:n-1]
		return i
	}
	var zero T
	*s = append(*s, zero)
	return int32(len(*s) - 1)
}

// HasRight reports whether the right key is present.
func (b *Bipartite) HasRight(key int64) bool { _, ok := b.right[key]; return ok }

// DegreeLeft returns the live edge count of a left vertex.
func (b *Bipartite) DegreeLeft(key int64) int {
	if l, ok := b.left[key]; ok {
		return len(b.verts[l].arcs)
	}
	return 0
}

// Lefts returns all live left keys, sorted.
func (b *Bipartite) Lefts() []int64 {
	return slices.Sorted(maps.Keys(b.left))
}

// Connect adds an edge between a left and a right vertex. Duplicate
// edges are ignored. Both endpoints must exist.
func (b *Bipartite) Connect(leftKey, rightKey int64) error {
	l, ok := b.left[leftKey]
	if !ok {
		return fmt.Errorf("flow: unknown left vertex %d", leftKey)
	}
	r, ok := b.right[rightKey]
	if !ok {
		return fmt.Errorf("flow: unknown right vertex %d", rightKey)
	}
	// Look for the edge from the endpoint with fewer arcs. Slots are
	// unique across sides, so an arc of `from` that names `to` at
	// either end is the edge.
	from, to := l, r
	if len(b.verts[r].arcs) < len(b.verts[l].arcs) {
		from, to = r, l
	}
	for _, a := range b.verts[from].arcs {
		if b.arcs[a].l == to || b.arcs[a].r == to {
			return nil
		}
	}
	a := alloc(&b.arcs, &b.freeA)
	lv, rv := &b.verts[l], &b.verts[r]
	b.arcs[a] = arc{l: l, r: r, li: int32(len(lv.arcs)), ri: int32(len(rv.arcs))}
	lv.arcs = append(lv.arcs, a)
	rv.arcs = append(rv.arcs, a)
	return nil
}

// RemoveLeft deletes a left vertex and the flow through it. Removing an
// absent key does nothing.
func (b *Bipartite) RemoveLeft(key int64) { b.remove(b.left, key) }

// RemoveRight deletes a right vertex and the flow through it. Removing
// an absent key does nothing.
func (b *Bipartite) RemoveRight(key int64) { b.remove(b.right, key) }

// remove deletes a vertex with its arcs in O(degree). Every flow path is
// source → left → right → sink, so the flow on an arc is also flow on
// the other endpoint's terminal edge: cancelling it is a subtraction
// there, and what is left is still a valid flow.
func (b *Bipartite) remove(side map[int64]int32, key int64) {
	v, ok := side[key]
	if !ok {
		return
	}
	delete(side, key)
	for _, a := range b.verts[v].arcs {
		ar := b.arcs[a]
		other, pos := ar.r, ar.ri
		if other == v {
			other, pos = ar.l, ar.li
		}
		o := &b.verts[other]
		o.f -= ar.f
		last := o.arcs[len(o.arcs)-1]
		o.arcs[pos] = last
		o.arcs = o.arcs[:len(o.arcs)-1]
		if b.arcs[last].l == other {
			b.arcs[last].li = pos
		} else {
			b.arcs[last].ri = pos
		}
		b.freeA = append(b.freeA, a)
	}
	vx := &b.verts[v]
	vx.arcs, vx.f, vx.live = vx.arcs[:0], 0, false
	b.freeV = append(b.freeV, v)
}

// Solve computes the current minimum-weight vertex cover. Flow from
// previous calls is kept, so a call after k new edges costs only the
// additional augmentations. The cover is read from the marks of the
// last search, the one that found no augmenting path: the vertices it
// reached are exactly R.
func (b *Bipartite) Solve() Cover {
	for b.augment() {
	}
	var c Cover
	for i := range b.verts {
		v := &b.verts[i]
		if v.live && v.right == (v.mark == b.epoch) {
			if v.right {
				c.Right = append(c.Right, v.key)
			} else {
				c.Left = append(c.Left, v.key)
			}
			c.Weight += v.w
		}
	}
	slices.Sort(c.Left)
	slices.Sort(c.Right)
	return c
}

// augment searches the residual graph breadth-first from the source
// and, if it reaches the sink, pushes the path's bottleneck along it.
// Residual edges are source → left while the source edge has room,
// left → right always, right → left while the arc carries flow, and
// right → sink while the sink edge has room.
func (b *Bipartite) augment() bool {
	b.epoch++
	if b.epoch == 0 { // wrapped: no stale mark may equal a new epoch
		for i := range b.verts {
			b.verts[i].mark = 0
		}
		b.epoch = 1
	}
	q := b.queue[:0]
	for i := range b.verts {
		if v := &b.verts[i]; v.live && !v.right && v.f < v.w {
			v.mark, v.from = b.epoch, -1
			q = append(q, int32(i))
		}
	}
	for head := 0; head < len(q); head++ {
		u := &b.verts[q[head]]
		for _, a := range u.arcs {
			next := b.arcs[a].r
			if u.right {
				if b.arcs[a].f == 0 {
					continue
				}
				next = b.arcs[a].l
			}
			nv := &b.verts[next]
			if nv.mark == b.epoch {
				continue
			}
			nv.mark, nv.from = b.epoch, a
			if nv.right && nv.f < nv.w {
				b.queue = q
				b.push(next)
				return true
			}
			q = append(q, next)
		}
	}
	b.queue = q
	return false
}

// push sends the bottleneck of the path the last search found to right
// vertex t along it: the room on t's sink edge, on the first left
// vertex's source edge and the flow of every arc walked backward.
func (b *Bipartite) push(t int32) {
	d := b.verts[t].w - b.verts[t].f
	v := t
	for a := b.verts[v].from; a >= 0; a = b.verts[v].from {
		if b.verts[v].right {
			v = b.arcs[a].l
		} else {
			d = min(d, b.arcs[a].f)
			v = b.arcs[a].r
		}
	}
	d = min(d, b.verts[v].w-b.verts[v].f)
	b.verts[v].f += d
	b.verts[t].f += d
	for v = t; b.verts[v].from >= 0; {
		ar := &b.arcs[b.verts[v].from]
		if b.verts[v].right {
			ar.f += d
			v = ar.l
		} else {
			ar.f -= d
			v = ar.r
		}
	}
}
