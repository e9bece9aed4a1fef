package flow

// The general Edmonds–Karp network and the refBipartite built on it that
// served VCover before the dedicated solver in bipartite.go, kept
// unchanged under ref… names as the oracle of the equality property
// (TestQuickBipartiteMatchesReference, FuzzBipartiteMatchesReference).

import (
	"fmt"
	"math"
	"sort"
)

// refInf is the edge capacity used for "infinite" edges in reductions. It
// is large enough that no min cut ever includes an infinite edge, yet
// small enough that sums cannot overflow int64.
const refInf int64 = math.MaxInt64 / 8

type refEdge struct {
	to   int32
	cap  int64
	flow int64
}

// refNetwork is a flow network over integer node IDs. The zero value is not
// usable; construct with newRefNetwork.
//
// Edges are stored in pairs: edge i and edge i^1 are mutual reverses, so
// pushing flow on one automatically adjusts the residual of the other.
type refNetwork struct {
	edges []refEdge
	adj   [][]int32 // per-node indices into edges
	alive []bool

	// visited/epoch implement O(1) amortized visited-marking across
	// repeated searches without reallocating.
	visited []uint32
	epoch   uint32

	// parentEdge is scratch space for path reconstruction.
	parentEdge []int32
	queue      []int32

	flowValue int64
}

// newRefNetwork returns an empty network.
func newRefNetwork() *refNetwork {
	return &refNetwork{}
}

// AddNode allocates a new node and returns its ID.
func (n *refNetwork) AddNode() int {
	id := len(n.adj)
	n.adj = append(n.adj, nil)
	n.alive = append(n.alive, true)
	n.visited = append(n.visited, 0)
	n.parentEdge = append(n.parentEdge, -1)
	return id
}

// Alive reports whether the node has not been removed.
func (n *refNetwork) Alive(v int) bool { return v >= 0 && v < len(n.alive) && n.alive[v] }

// AddEdge adds a directed edge with the given capacity and returns its
// edge ID. The implicit reverse edge has capacity zero.
func (n *refNetwork) AddEdge(from, to int, capacity int64) (int, error) {
	if !n.Alive(from) || !n.Alive(to) {
		return 0, fmt.Errorf("flow: edge endpoints must be alive nodes (%d -> %d)", from, to)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("flow: negative capacity %d", capacity)
	}
	id := len(n.edges)
	n.edges = append(n.edges,
		refEdge{to: int32(to), cap: capacity},
		refEdge{to: int32(from), cap: 0},
	)
	n.adj[from] = append(n.adj[from], int32(id))
	n.adj[to] = append(n.adj[to], int32(id+1))
	return id, nil
}

// Value returns the current total flow from source to sink as maintained
// across MaxFlow and RemoveNode calls.
func (n *refNetwork) Value() int64 { return n.flowValue }

func (n *refNetwork) nextEpoch() {
	n.epoch++
	if n.epoch == 0 { // wrapped; reset all marks
		for i := range n.visited {
			n.visited[i] = 0
		}
		n.epoch = 1
	}
}

// MaxFlow augments the current flow to maximality between s and t using
// BFS (Edmonds–Karp) and returns the total flow value. Calling it again
// after adding nodes or edges performs only the incremental work: the
// existing flow is kept and only new augmenting paths are searched.
func (n *refNetwork) MaxFlow(s, t int) int64 {
	if !n.Alive(s) || !n.Alive(t) || s == t {
		return n.flowValue
	}
	for {
		pushed := n.augmentOnce(s, t)
		if pushed == 0 {
			break
		}
		n.flowValue += pushed
	}
	return n.flowValue
}

// augmentOnce finds one shortest augmenting path and pushes the
// bottleneck along it, returning the amount pushed (0 if no path).
func (n *refNetwork) augmentOnce(s, t int) int64 {
	n.nextEpoch()
	n.visited[s] = n.epoch
	n.queue = n.queue[:0]
	n.queue = append(n.queue, int32(s))
	found := false
	for qi := 0; qi < len(n.queue) && !found; qi++ {
		u := n.queue[qi]
		for _, ei := range n.adj[u] {
			e := &n.edges[ei]
			v := e.to
			if e.cap-e.flow <= 0 || n.visited[v] == n.epoch || !n.alive[v] {
				continue
			}
			n.visited[v] = n.epoch
			n.parentEdge[v] = ei
			if int(v) == t {
				found = true
				break
			}
			n.queue = append(n.queue, v)
		}
	}
	if !found {
		return 0
	}
	// Bottleneck.
	bottleneck := refInf * 2
	for v := int32(t); int(v) != s; {
		ei := n.parentEdge[v]
		if r := n.edges[ei].cap - n.edges[ei].flow; r < bottleneck {
			bottleneck = r
		}
		v = n.edges[ei^1].to
	}
	for v := int32(t); int(v) != s; {
		ei := n.parentEdge[v]
		n.edges[ei].flow += bottleneck
		n.edges[ei^1].flow -= bottleneck
		v = n.edges[ei^1].to
	}
	return bottleneck
}

// ResidualReachable returns the set of nodes reachable from s in the
// residual graph, as a predicate. After MaxFlow has run, this identifies
// the source side of a minimum cut.
func (n *refNetwork) ResidualReachable(s int) func(v int) bool {
	reach := make(map[int]struct{})
	if !n.Alive(s) {
		return func(int) bool { return false }
	}
	n.nextEpoch()
	n.visited[s] = n.epoch
	reach[s] = struct{}{}
	n.queue = n.queue[:0]
	n.queue = append(n.queue, int32(s))
	for qi := 0; qi < len(n.queue); qi++ {
		u := n.queue[qi]
		for _, ei := range n.adj[u] {
			e := &n.edges[ei]
			v := e.to
			if e.cap-e.flow <= 0 || n.visited[v] == n.epoch || !n.alive[v] {
				continue
			}
			n.visited[v] = n.epoch
			reach[int(v)] = struct{}{}
			n.queue = append(n.queue, v)
		}
	}
	return func(v int) bool {
		_, ok := reach[v]
		return ok
	}
}

// RemoveNode cancels all flow routed through v and detaches it from the
// network. s and t identify the flow endpoints so that cancelled s–t
// paths decrement Value. Removing s or t is not supported.
func (n *refNetwork) RemoveNode(v, s, t int) error {
	if v == s || v == t {
		return fmt.Errorf("flow: cannot remove flow endpoint %d", v)
	}
	if !n.Alive(v) {
		return nil
	}
	// Cancel flow passing through v, path by path (or cycle by cycle).
	for {
		inEdge := n.incomingFlowEdge(v)
		if inEdge < 0 {
			break
		}
		if err := n.cancelOneThrough(v, s, t); err != nil {
			return err
		}
	}
	// Detach: remove v's edges from its neighbors' adjacency, then clear
	// v's own list. Edge structs become tombstones.
	for _, ei := range n.adj[v] {
		rev := ei ^ 1
		other := n.edges[ei].to
		n.edges[ei].cap, n.edges[ei].flow = 0, 0
		n.edges[rev].cap, n.edges[rev].flow = 0, 0
		n.removeAdj(int(other), rev)
	}
	n.adj[v] = nil
	n.alive[v] = false
	return nil
}

// incomingFlowEdge returns an edge index carrying positive flow into v,
// or -1. The returned index is the edge whose .to == v.
func (n *refNetwork) incomingFlowEdge(v int) int32 {
	for _, ei := range n.adj[v] {
		// adj[v] holds edges leaving v; the paired edge ei^1 points into
		// v. Positive flow on ei^1 means flow into v.
		if n.edges[ei^1].flow > 0 {
			return ei ^ 1
		}
	}
	return -1
}

// cancelOneThrough removes one unit-path (or cycle) of flow passing
// through v. Flow decomposition guarantees that any node with through
// flow lies on an s→t path of flow edges or on a flow cycle.
func (n *refNetwork) cancelOneThrough(v, s, t int) error {
	back, backCycle := n.traceFlowPath(v, s, true)
	if back == nil {
		return fmt.Errorf("flow: inconsistent flow at node %d (no upstream path)", v)
	}
	if backCycle {
		n.cancelAlong(back)
		return nil
	}
	fwd, fwdCycle := n.traceFlowPath(v, t, false)
	if fwd == nil {
		return fmt.Errorf("flow: inconsistent flow at node %d (no downstream path)", v)
	}
	if fwdCycle {
		n.cancelAlong(fwd)
		return nil
	}
	// back is a flow path s→v, fwd is v→t; cancel the concatenation.
	path := append(append([]int32(nil), back...), fwd...)
	n.flowValue -= n.cancelAlong(path)
	return nil
}

// traceFlowPath finds a path of positive-flow edges between v and goal.
// With backward=true it walks flow edges in reverse (finding an s→v
// segment); otherwise forward (v→t). If it closes a cycle through v
// before reaching the goal, it returns the cycle's edges with cycle ==
// true. Returns nil if v has no adjacent flow in that direction.
func (n *refNetwork) traceFlowPath(v, goal int, backward bool) (path []int32, cycle bool) {
	n.nextEpoch()
	n.visited[v] = n.epoch
	n.queue = n.queue[:0]
	n.queue = append(n.queue, int32(v))
	// parentEdge[u] = edge (in flow direction) connecting u to its BFS
	// parent.
	found := int32(-1)
	for qi := 0; qi < len(n.queue) && found < 0; qi++ {
		u := n.queue[qi]
		for _, ei := range n.adj[u] {
			var flowEdge int32
			var next int32
			if backward {
				// Flow into u: paired edge ei^1 ends at u; its origin is
				// edges[ei].to.
				flowEdge = ei ^ 1
				next = n.edges[ei].to
				if n.edges[flowEdge].flow <= 0 {
					continue
				}
			} else {
				flowEdge = ei
				next = n.edges[ei].to
				if n.edges[flowEdge].flow <= 0 {
					continue
				}
			}
			if !n.alive[next] {
				continue
			}
			if n.visited[next] == n.epoch {
				continue
			}
			n.visited[next] = n.epoch
			n.parentEdge[next] = flowEdge
			if int(next) == goal {
				found = next
				break
			}
			n.queue = append(n.queue, next)
		}
	}
	if found < 0 {
		// No path to goal: with positive through-flow this means the
		// flow through v sits on a cycle. Find it by walking one step
		// and reusing visited marks.
		return n.traceFlowCycle(v, backward)
	}
	// Reconstruct from goal back to v.
	for u := found; int(u) != v; {
		ei := n.parentEdge[u]
		path = append(path, ei)
		if backward {
			// parentEdge is the flow edge whose head is the parent when
			// walking backward; its tail is u's predecessor toward v.
			u = n.edges[ei].to
		} else {
			u = n.edges[ei^1].to
		}
	}
	// Path currently goal→v; forward traces need v→goal order. For
	// cancellation order does not matter, but keep deterministic.
	refReverse(path)
	return path, false
}

// traceFlowCycle walks flow edges from v until it revisits a node,
// returning the cycle's edges.
func (n *refNetwork) traceFlowCycle(v int, backward bool) ([]int32, bool) {
	// Walk along flow edges recording the path until a node repeats.
	pos := make(map[int32]int)
	var pathNodes []int32
	var pathEdges []int32
	cur := int32(v)
	for {
		if at, ok := pos[cur]; ok {
			// Cycle from pathNodes[at..]
			return pathEdges[at:], true
		}
		pos[cur] = len(pathNodes)
		pathNodes = append(pathNodes, cur)
		advanced := false
		for _, ei := range n.adj[cur] {
			var flowEdge, next int32
			if backward {
				flowEdge = ei ^ 1
				next = n.edges[ei].to
			} else {
				flowEdge = ei
				next = n.edges[ei].to
			}
			if n.edges[flowEdge].flow <= 0 || !n.alive[next] {
				continue
			}
			pathEdges = append(pathEdges, flowEdge)
			cur = next
			advanced = true
			break
		}
		if !advanced {
			return nil, false
		}
	}
}

// cancelAlong reduces flow along the given flow edges by their common
// bottleneck and returns the amount cancelled.
func (n *refNetwork) cancelAlong(edges []int32) int64 {
	if len(edges) == 0 {
		return 0
	}
	bottleneck := n.edges[edges[0]].flow
	for _, ei := range edges[1:] {
		if f := n.edges[ei].flow; f < bottleneck {
			bottleneck = f
		}
	}
	if bottleneck <= 0 {
		return 0
	}
	for _, ei := range edges {
		n.edges[ei].flow -= bottleneck
		n.edges[ei^1].flow += bottleneck
	}
	return bottleneck
}

func (n *refNetwork) removeAdj(node int, edgeIdx int32) {
	lst := n.adj[node]
	for i, e := range lst {
		if e == edgeIdx {
			lst[i] = lst[len(lst)-1]
			n.adj[node] = lst[:len(lst)-1]
			return
		}
	}
}

func refReverse(s []int32) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// refBipartite maintains a weighted bipartite graph — left vertices are
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
type refBipartite struct {
	net  *refNetwork
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

// newRefBipartite returns an empty bipartite cover solver.
func newRefBipartite() *refBipartite {
	net := newRefNetwork()
	return &refBipartite{
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
func (b *refBipartite) AddLeft(key, weight int64) error {
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
func (b *refBipartite) AddRight(key, weight int64) error {
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
func (b *refBipartite) HasLeft(key int64) bool { _, ok := b.left[key]; return ok }

// HasRight reports whether the right key is present.
func (b *refBipartite) HasRight(key int64) bool { _, ok := b.right[key]; return ok }

// DegreeLeft returns the live edge count of a left vertex.
func (b *refBipartite) DegreeLeft(key int64) int { return len(b.ledges[key]) }

// DegreeRight returns the live edge count of a right vertex.
func (b *refBipartite) DegreeRight(key int64) int { return len(b.redges[key]) }

// Neighbors returns the right keys adjacent to a left vertex, sorted.
func (b *refBipartite) Neighbors(leftKey int64) []int64 {
	out := make([]int64, 0, len(b.ledges[leftKey]))
	for r := range b.ledges[leftKey] {
		out = append(out, r)
	}
	refSortInt64s(out)
	return out
}

// Len returns the number of live left and right vertices.
func (b *refBipartite) Len() (nLeft, nRight int) { return len(b.left), len(b.right) }

// Lefts returns all live left keys, sorted.
func (b *refBipartite) Lefts() []int64 {
	out := make([]int64, 0, len(b.left))
	for k := range b.left {
		out = append(out, k)
	}
	refSortInt64s(out)
	return out
}

// Connect adds an edge between a left and a right vertex. Duplicate
// edges are ignored. Both endpoints must exist.
func (b *refBipartite) Connect(leftKey, rightKey int64) error {
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
	if _, err := b.net.AddEdge(ln, rn, refInf); err != nil {
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
func (b *refBipartite) RemoveLeft(key int64) error {
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
func (b *refBipartite) RemoveRight(key int64) error {
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
func (b *refBipartite) Solve() Cover {
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
	refSortInt64s(cover.Left)
	refSortInt64s(cover.Right)
	return cover
}

// FlowValue returns the current max-flow value, which after Solve equals
// the cover weight.
func (b *refBipartite) FlowValue() int64 { return b.net.Value() }

func refSortInt64s(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
