package flow

// Tests of the reference network in reference_test.go. The equality
// property holds the solver to that oracle, so the oracle is checked on
// its own: max flow, incremental growth, removal and the min cut.

import (
	"math/rand"
	"testing"
)

func mustEdge(t *testing.T, n *refNetwork, from, to int, capacity int64) int {
	t.Helper()
	id, err := n.AddEdge(from, to, capacity)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d,%d): %v", from, to, capacity, err)
	}
	return id
}

func TestMaxFlowSimplePath(t *testing.T) {
	n := newRefNetwork()
	s, a, tk := n.AddNode(), n.AddNode(), n.AddNode()
	mustEdge(t, n, s, a, 5)
	mustEdge(t, n, a, tk, 3)
	if got := n.MaxFlow(s, tk); got != 3 {
		t.Errorf("MaxFlow = %d, want 3", got)
	}
}

func TestMaxFlowClassicDiamond(t *testing.T) {
	// Two disjoint paths of capacity 2 and 3, plus a cross edge that
	// lets one unit reroute.
	n := newRefNetwork()
	s, a, b, tk := n.AddNode(), n.AddNode(), n.AddNode(), n.AddNode()
	mustEdge(t, n, s, a, 3)
	mustEdge(t, n, s, b, 2)
	mustEdge(t, n, a, tk, 2)
	mustEdge(t, n, b, tk, 3)
	mustEdge(t, n, a, b, 1)
	if got := n.MaxFlow(s, tk); got != 5 {
		t.Errorf("MaxFlow = %d, want 5", got)
	}
}

func TestMaxFlowZeroWhenDisconnected(t *testing.T) {
	n := newRefNetwork()
	s, a, tk := n.AddNode(), n.AddNode(), n.AddNode()
	mustEdge(t, n, s, a, 5)
	if got := n.MaxFlow(s, tk); got != 0 {
		t.Errorf("MaxFlow = %d, want 0", got)
	}
}

func TestMaxFlowIncrementalGrowth(t *testing.T) {
	// Growing the network must not lose prior flow, and re-solving must
	// give the same value as solving the final network from scratch.
	n := newRefNetwork()
	s, a, tk := n.AddNode(), n.AddNode(), n.AddNode()
	mustEdge(t, n, s, a, 4)
	mustEdge(t, n, a, tk, 4)
	if got := n.MaxFlow(s, tk); got != 4 {
		t.Fatalf("initial MaxFlow = %d, want 4", got)
	}
	b := n.AddNode()
	mustEdge(t, n, s, b, 7)
	mustEdge(t, n, b, tk, 6)
	if got := n.MaxFlow(s, tk); got != 10 {
		t.Errorf("incremental MaxFlow = %d, want 10", got)
	}
}

func TestRemoveNodeCancelsFlow(t *testing.T) {
	n := newRefNetwork()
	s, a, b, tk := n.AddNode(), n.AddNode(), n.AddNode(), n.AddNode()
	mustEdge(t, n, s, a, 4)
	mustEdge(t, n, a, tk, 4)
	mustEdge(t, n, s, b, 3)
	mustEdge(t, n, b, tk, 3)
	if got := n.MaxFlow(s, tk); got != 7 {
		t.Fatalf("MaxFlow = %d, want 7", got)
	}
	if err := n.RemoveNode(a, s, tk); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if got := n.Value(); got != 3 {
		t.Errorf("Value after removal = %d, want 3", got)
	}
	if got := n.MaxFlow(s, tk); got != 3 {
		t.Errorf("MaxFlow after removal = %d, want 3", got)
	}
	if n.Alive(a) {
		t.Error("removed node still alive")
	}
}

func TestRemoveNodeThenRegrow(t *testing.T) {
	n := newRefNetwork()
	s, a, tk := n.AddNode(), n.AddNode(), n.AddNode()
	mustEdge(t, n, s, a, 2)
	mustEdge(t, n, a, tk, 2)
	n.MaxFlow(s, tk)
	if err := n.RemoveNode(a, s, tk); err != nil {
		t.Fatal(err)
	}
	b := n.AddNode()
	mustEdge(t, n, s, b, 9)
	mustEdge(t, n, b, tk, 5)
	if got := n.MaxFlow(s, tk); got != 5 {
		t.Errorf("MaxFlow after regrow = %d, want 5", got)
	}
}

func TestRemoveEndpointRejected(t *testing.T) {
	n := newRefNetwork()
	s, tk := n.AddNode(), n.AddNode()
	if err := n.RemoveNode(s, s, tk); err == nil {
		t.Error("removing source should fail")
	}
	if err := n.RemoveNode(tk, s, tk); err == nil {
		t.Error("removing sink should fail")
	}
}

func TestRemoveNodeIdempotent(t *testing.T) {
	n := newRefNetwork()
	s, a, tk := n.AddNode(), n.AddNode(), n.AddNode()
	mustEdge(t, n, s, a, 1)
	mustEdge(t, n, a, tk, 1)
	n.MaxFlow(s, tk)
	if err := n.RemoveNode(a, s, tk); err != nil {
		t.Fatal(err)
	}
	if err := n.RemoveNode(a, s, tk); err != nil {
		t.Errorf("second RemoveNode should be a no-op, got %v", err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	n := newRefNetwork()
	s := n.AddNode()
	if _, err := n.AddEdge(s, 99, 1); err == nil {
		t.Error("edge to unknown node should fail")
	}
	if _, err := n.AddEdge(s, s, -1); err == nil {
		t.Error("negative capacity should fail")
	}
}

func TestResidualReachableIdentifiesMinCut(t *testing.T) {
	// s -> a (1) -> t (10): cut is the s->a edge, so only s is
	// reachable.
	n := newRefNetwork()
	s, a, tk := n.AddNode(), n.AddNode(), n.AddNode()
	mustEdge(t, n, s, a, 1)
	mustEdge(t, n, a, tk, 10)
	n.MaxFlow(s, tk)
	reach := n.ResidualReachable(s)
	if !reach(s) {
		t.Error("source must be reachable")
	}
	if reach(a) || reach(tk) {
		t.Error("a and t must be on the sink side of the cut")
	}
}

// TestRandomFlowsMatchRecompute runs random grow/solve/remove sequences
// and checks the incrementally maintained flow value always matches a
// from-scratch computation on an identical network.
func TestRandomFlowsMatchRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := newRefNetwork()
		s, tk := n.AddNode(), n.AddNode()
		type edgeSpec struct {
			from, to int
			cap      int64
		}
		var (
			nodes []int
			specs []edgeSpec
			dead  = make(map[int]bool)
		)
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(nodes) < 2: // add node
				nodes = append(nodes, n.AddNode())
			case op < 8: // add random edge among s, t, nodes
				all := append([]int{s, tk}, nodes...)
				from := all[rng.Intn(len(all))]
				to := all[rng.Intn(len(all))]
				if from == to || dead[from] || dead[to] || to == s || from == tk {
					continue
				}
				c := int64(rng.Intn(20) + 1)
				mustEdge(t, n, from, to, c)
				specs = append(specs, edgeSpec{from, to, c})
				n.MaxFlow(s, tk)
			default: // remove a node
				if len(nodes) == 0 {
					continue
				}
				v := nodes[rng.Intn(len(nodes))]
				if dead[v] {
					continue
				}
				if err := n.RemoveNode(v, s, tk); err != nil {
					t.Fatalf("trial %d: RemoveNode: %v", trial, err)
				}
				dead[v] = true
				n.MaxFlow(s, tk)
			}
		}
		got := n.MaxFlow(s, tk)

		// Recompute from scratch over the surviving topology.
		fresh := newRefNetwork()
		fs, ft := fresh.AddNode(), fresh.AddNode()
		remap := map[int]int{s: fs, tk: ft}
		for _, v := range nodes {
			if !dead[v] {
				remap[v] = fresh.AddNode()
			}
		}
		for _, sp := range specs {
			if dead[sp.from] || dead[sp.to] {
				continue
			}
			mustEdge(t, fresh, remap[sp.from], remap[sp.to], sp.cap)
		}
		want := fresh.MaxFlow(fs, ft)
		if got != want {
			t.Fatalf("trial %d: incremental flow %d != fresh flow %d", trial, got, want)
		}
	}
}

// TestFlowConservationAfterRandomOps verifies flow conservation at every
// interior node after arbitrary operation sequences.
func TestFlowConservationAfterRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := newRefNetwork()
	s, tk := n.AddNode(), n.AddNode()
	var nodes []int
	for i := 0; i < 30; i++ {
		nodes = append(nodes, n.AddNode())
	}
	for step := 0; step < 300; step++ {
		from := s
		if rng.Intn(3) > 0 {
			from = nodes[rng.Intn(len(nodes))]
		}
		to := tk
		if rng.Intn(3) > 0 {
			to = nodes[rng.Intn(len(nodes))]
		}
		if from == to || !n.Alive(from) || !n.Alive(to) {
			continue
		}
		mustEdge(t, n, from, to, int64(rng.Intn(9)+1))
		n.MaxFlow(s, tk)
		if step%17 == 0 {
			v := nodes[rng.Intn(len(nodes))]
			if n.Alive(v) {
				if err := n.RemoveNode(v, s, tk); err != nil {
					t.Fatalf("RemoveNode: %v", err)
				}
			}
		}
	}
	// Conservation check: net flow at interior nodes is zero.
	netFlow := make(map[int32]int64)
	for i := 0; i < len(n.edges); i += 2 {
		e := n.edges[i]
		if e.flow <= 0 {
			continue
		}
		rev := n.edges[i+1]
		netFlow[rev.to] -= e.flow // tail
		netFlow[e.to] += e.flow   // head
	}
	for v, f := range netFlow {
		if int(v) == s || int(v) == tk {
			continue
		}
		if f != 0 {
			t.Fatalf("flow conservation violated at node %d: net %d", v, f)
		}
	}
	if netFlow[int32(s)] != -n.Value() || netFlow[int32(tk)] != n.Value() {
		t.Fatalf("endpoint imbalance: src %d sink %d value %d",
			netFlow[int32(s)], netFlow[int32(tk)], n.Value())
	}
}
