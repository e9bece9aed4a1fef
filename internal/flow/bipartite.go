package flow

import (
	"fmt"
	"sort"
)

// Bipartite maintains a weighted bipartite graph — left vertices are
// queries, right vertices are updates in VCover's interaction graph —
// and answers minimum-weight vertex cover queries incrementally.
//
// The reduction (Hochbaum 1997): source → left vertex with capacity
// w(left); right vertex → sink with capacity w(right); left → right with
// infinite capacity. After max flow, with R the residual-reachable set
// from the source, the minimum-weight cover is
//
//	{ left l : l ∉ R } ∪ { right r : r ∈ R }
//
// and its weight equals the max-flow value. Because every left→right
// edge has infinite capacity, no such edge can cross the min cut, so for
// every edge at least one endpoint is in the cover.
//
// Vertices are identified by caller-chosen int64 keys (query IDs and
// update IDs). Key spaces of the two sides are independent.
type Bipartite struct {
	net  *Network
	s, t int

	left  map[int64]int // key → node
	right map[int64]int

	weight  map[int64]int64 // left keys
	rweight map[int64]int64 // right keys

	// ledges[l] is the set of right keys adjacent to left key l;
	// redges[r] the mirror. They provide O(degree) removals and
	// duplicate-edge detection.
	ledges map[int64]map[int64]struct{}
	redges map[int64]map[int64]struct{}
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
func (c Cover) ContainsLeft(key int64) bool { return containsSorted(c.Left, key) }

// ContainsRight reports whether the right key is in the cover.
func (c Cover) ContainsRight(key int64) bool { return containsSorted(c.Right, key) }

func containsSorted(s []int64, key int64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= key })
	return i < len(s) && s[i] == key
}

// NewBipartite returns an empty bipartite cover solver.
func NewBipartite() *Bipartite {
	net := NewNetwork()
	return &Bipartite{
		net:     net,
		s:       net.AddNode(),
		t:       net.AddNode(),
		left:    make(map[int64]int),
		right:   make(map[int64]int),
		weight:  make(map[int64]int64),
		rweight: make(map[int64]int64),
		ledges:  make(map[int64]map[int64]struct{}),
		redges:  make(map[int64]map[int64]struct{}),
	}
}

// AddLeft inserts a left vertex with the given weight. Re-adding an
// existing key is an error: weights are immutable once attached.
func (b *Bipartite) AddLeft(key, weight int64) error {
	if _, ok := b.left[key]; ok {
		return fmt.Errorf("flow: left vertex %d already present", key)
	}
	if weight < 0 {
		return fmt.Errorf("flow: left vertex %d has negative weight %d", key, weight)
	}
	node := b.net.AddNode()
	b.left[key] = node
	b.weight[key] = weight
	if _, err := b.net.AddEdge(b.s, node, weight); err != nil {
		return err
	}
	return nil
}

// AddRight inserts a right vertex with the given weight.
func (b *Bipartite) AddRight(key, weight int64) error {
	if _, ok := b.right[key]; ok {
		return fmt.Errorf("flow: right vertex %d already present", key)
	}
	if weight < 0 {
		return fmt.Errorf("flow: right vertex %d has negative weight %d", key, weight)
	}
	node := b.net.AddNode()
	b.right[key] = node
	b.rweight[key] = weight
	if _, err := b.net.AddEdge(node, b.t, weight); err != nil {
		return err
	}
	return nil
}

// HasLeft reports whether the left key is present.
func (b *Bipartite) HasLeft(key int64) bool { _, ok := b.left[key]; return ok }

// HasRight reports whether the right key is present.
func (b *Bipartite) HasRight(key int64) bool { _, ok := b.right[key]; return ok }

// DegreeLeft returns the live edge count of a left vertex.
func (b *Bipartite) DegreeLeft(key int64) int { return len(b.ledges[key]) }

// DegreeRight returns the live edge count of a right vertex.
func (b *Bipartite) DegreeRight(key int64) int { return len(b.redges[key]) }

// Neighbors returns the right keys adjacent to a left vertex, sorted.
func (b *Bipartite) Neighbors(leftKey int64) []int64 {
	out := make([]int64, 0, len(b.ledges[leftKey]))
	for r := range b.ledges[leftKey] {
		out = append(out, r)
	}
	sortInt64s(out)
	return out
}

// Len returns the number of live left and right vertices.
func (b *Bipartite) Len() (nLeft, nRight int) { return len(b.left), len(b.right) }

// Lefts returns all live left keys, sorted.
func (b *Bipartite) Lefts() []int64 {
	out := make([]int64, 0, len(b.left))
	for k := range b.left {
		out = append(out, k)
	}
	sortInt64s(out)
	return out
}

// Connect adds an edge between a left and a right vertex. Duplicate
// edges are ignored. Both endpoints must exist.
func (b *Bipartite) Connect(leftKey, rightKey int64) error {
	ln, ok := b.left[leftKey]
	if !ok {
		return fmt.Errorf("flow: unknown left vertex %d", leftKey)
	}
	rn, ok := b.right[rightKey]
	if !ok {
		return fmt.Errorf("flow: unknown right vertex %d", rightKey)
	}
	if _, dup := b.ledges[leftKey][rightKey]; dup {
		return nil
	}
	if _, err := b.net.AddEdge(ln, rn, Inf); err != nil {
		return err
	}
	if b.ledges[leftKey] == nil {
		b.ledges[leftKey] = make(map[int64]struct{})
	}
	if b.redges[rightKey] == nil {
		b.redges[rightKey] = make(map[int64]struct{})
	}
	b.ledges[leftKey][rightKey] = struct{}{}
	b.redges[rightKey][leftKey] = struct{}{}
	return nil
}

// RemoveLeft deletes a left vertex, cancelling any flow through it.
func (b *Bipartite) RemoveLeft(key int64) error {
	node, ok := b.left[key]
	if !ok {
		return nil
	}
	if err := b.net.RemoveNode(node, b.s, b.t); err != nil {
		return err
	}
	delete(b.left, key)
	delete(b.weight, key)
	for r := range b.ledges[key] {
		delete(b.redges[r], key)
	}
	delete(b.ledges, key)
	return nil
}

// RemoveRight deletes a right vertex, cancelling any flow through it.
func (b *Bipartite) RemoveRight(key int64) error {
	node, ok := b.right[key]
	if !ok {
		return nil
	}
	if err := b.net.RemoveNode(node, b.s, b.t); err != nil {
		return err
	}
	delete(b.right, key)
	delete(b.rweight, key)
	for l := range b.redges[key] {
		delete(b.ledges[l], key)
	}
	delete(b.redges, key)
	return nil
}

// Solve computes the current minimum-weight vertex cover. Work is
// incremental: flow from previous calls is retained, so a call after k
// new edges costs only the additional augmentations.
func (b *Bipartite) Solve() Cover {
	b.net.MaxFlow(b.s, b.t)
	reach := b.net.ResidualReachable(b.s)
	var cover Cover
	for key, node := range b.left {
		if !reach(node) {
			cover.Left = append(cover.Left, key)
			cover.Weight += b.weight[key]
		}
	}
	for key, node := range b.right {
		if reach(node) {
			cover.Right = append(cover.Right, key)
			cover.Weight += b.rweight[key]
		}
	}
	sortInt64s(cover.Left)
	sortInt64s(cover.Right)
	return cover
}

// FlowValue returns the current max-flow value, which after Solve equals
// the cover weight.
func (b *Bipartite) FlowValue() int64 { return b.net.Value() }

func sortInt64s(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
