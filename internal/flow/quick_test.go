package flow

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// quickGraph describes a random bipartite instance for property tests.
type quickGraph struct {
	leftW  []int64
	rightW []int64
	edges  [][2]int
}

func genGraph(rng *rand.Rand) quickGraph {
	g := quickGraph{
		leftW:  make([]int64, rng.Intn(6)+1),
		rightW: make([]int64, rng.Intn(6)+1),
	}
	for i := range g.leftW {
		g.leftW[i] = int64(rng.Intn(40))
	}
	for i := range g.rightW {
		g.rightW[i] = int64(rng.Intn(40))
	}
	for l := range g.leftW {
		for r := range g.rightW {
			if rng.Intn(100) < 40 {
				g.edges = append(g.edges, [2]int{l, r})
			}
		}
	}
	return g
}

func buildBipartite(t testing.TB, g quickGraph) *Bipartite {
	b := NewBipartite()
	for i, w := range g.leftW {
		if err := b.AddLeft(int64(i), w); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range g.rightW {
		if err := b.AddRight(int64(i), w); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.edges {
		if err := b.Connect(int64(e[0]), int64(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestQuickCoverWeightEqualsFlow: LP duality — the minimum vertex cover
// weight must equal the maximum flow value on every instance.
func TestQuickCoverWeightEqualsFlow(t *testing.T) {
	f := func(seed int64) bool {
		g := genGraph(rand.New(rand.NewSource(seed)))
		b := buildBipartite(t, g)
		cover := b.Solve()
		return cover.Weight == flowValue(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickCoverIsValid: every edge has an endpoint in the cover.
func TestQuickCoverIsValid(t *testing.T) {
	f := func(seed int64) bool {
		g := genGraph(rand.New(rand.NewSource(seed)))
		b := buildBipartite(t, g)
		cover := b.Solve()
		for _, e := range g.edges {
			if !cover.ContainsLeft(int64(e[0])) && !containsRight(cover, int64(e[1])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickCoverIsMinimal: no cheaper cover exists (brute force).
func TestQuickCoverIsMinimal(t *testing.T) {
	f := func(seed int64) bool {
		g := genGraph(rand.New(rand.NewSource(seed)))
		b := buildBipartite(t, g)
		cover := b.Solve()
		leftW := make(map[int64]int64, len(g.leftW))
		for i, w := range g.leftW {
			leftW[int64(i)] = w
		}
		rightW := make(map[int64]int64, len(g.rightW))
		for i, w := range g.rightW {
			rightW[int64(i)] = w
		}
		var edges [][2]int64
		for _, e := range g.edges {
			edges = append(edges, [2]int64{int64(e[0]), int64(e[1])})
		}
		return sameCover(cover, bruteCover(t, leftW, rightW, edges))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickSolveIdempotent: solving twice without mutations returns the
// same cover.
func TestQuickSolveIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		g := genGraph(rand.New(rand.NewSource(seed)))
		b := buildBipartite(t, g)
		a := b.Solve()
		c := b.Solve()
		if a.Weight != c.Weight || len(a.Left) != len(c.Left) || len(a.Right) != len(c.Right) {
			return false
		}
		for i := range a.Left {
			if a.Left[i] != c.Left[i] {
				return false
			}
		}
		for i := range a.Right {
			if a.Right[i] != c.Right[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickRemovalKeepsValidity: after removing random vertices, the
// recomputed cover is still valid for the surviving edges and minimal.
func TestQuickRemovalKeepsValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := genGraph(rng)
		b := buildBipartite(t, g)
		b.Solve()

		removedL := make(map[int]bool)
		removedR := make(map[int]bool)
		for i := range g.leftW {
			if rng.Intn(3) == 0 {
				b.RemoveLeft(int64(i))
				removedL[i] = true
			}
		}
		for i := range g.rightW {
			if rng.Intn(3) == 0 {
				b.RemoveRight(int64(i))
				removedR[i] = true
			}
		}
		cover := b.Solve()
		leftW := make(map[int64]int64)
		rightW := make(map[int64]int64)
		for i, w := range g.leftW {
			if !removedL[i] {
				leftW[int64(i)] = w
			}
		}
		for i, w := range g.rightW {
			if !removedR[i] {
				rightW[int64(i)] = w
			}
		}
		var edges [][2]int64
		for _, e := range g.edges {
			if removedL[e[0]] || removedR[e[1]] {
				continue
			}
			edges = append(edges, [2]int64{int64(e[0]), int64(e[1])})
			if !cover.ContainsLeft(int64(e[0])) && !containsRight(cover, int64(e[1])) {
				return false
			}
		}
		return sameCover(cover, bruteCover(t, leftW, rightW, edges))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The operations of a sequence run on both solvers. A byte triple
// decodes to one operation: its kind, a key of 0–7 and a weight of 0–19
// (the right key of a Connect is the weight mod 8), so duplicate keys,
// unknown endpoints, zero weights and ties all occur.
const (
	opAddLeft = iota
	opAddRight
	opConnect
	opRemoveLeft
	opRemoveRight
	opSolve
)

var opKinds = [...]int{opAddLeft, opAddRight, opConnect, opConnect, opConnect, opRemoveLeft, opRemoveRight, opSolve}

// matchReference runs the operation sequence data encodes on the solver
// and on the reference. After every Solve (and once at the end) the two
// covers, their weight, the flow value, the live left keys and every
// key's degree must be equal, the solver's state a valid flow, and the
// cover the canonical one bruteCover finds.
func matchReference(t testing.TB, data []byte) error {
	b, ref := NewBipartite(), newRefBipartite()
	leftW, rightW := make(map[int64]int64), make(map[int64]int64)
	edges := make(map[[2]int64]bool)
	for i := 0; i+3 <= len(data); i += 3 {
		kind, key, w := opKinds[int(data[i])%len(opKinds)], int64(data[i+1]%8), int64(data[i+2]%20)
		var err, refErr error
		switch kind {
		case opAddLeft:
			err, refErr = b.AddLeft(key, w), ref.AddLeft(key, w)
			if err == nil {
				leftW[key] = w
			}
		case opAddRight:
			err, refErr = b.AddRight(key, w), ref.AddRight(key, w)
			if err == nil {
				rightW[key] = w
			}
		case opConnect:
			err, refErr = b.Connect(key, w%8), ref.Connect(key, w%8)
			if err == nil {
				edges[[2]int64{key, w % 8}] = true
			}
		case opRemoveLeft:
			b.RemoveLeft(key)
			refErr = ref.RemoveLeft(key)
			delete(leftW, key)
			for e := range edges {
				if e[0] == key {
					delete(edges, e)
				}
			}
		case opRemoveRight:
			b.RemoveRight(key)
			refErr = ref.RemoveRight(key)
			delete(rightW, key)
			for e := range edges {
				if e[1] == key {
					delete(edges, e)
				}
			}
		}
		if (err == nil) != (refErr == nil) {
			return fmt.Errorf("op %d (kind %d, key %d, %d): error %v, reference %v", i/3, kind, key, w, err, refErr)
		}
		if kind == opSolve || i+6 > len(data) {
			got, want := b.Solve(), ref.Solve()
			if !sameCover(got, want) || flowValue(b) != ref.FlowValue() {
				return fmt.Errorf("op %d: cover %+v flow %d, reference %+v flow %d", i/3, got, flowValue(b), want, ref.FlowValue())
			}
			checkInvariants(t, b)
			if !slices.Equal(b.Lefts(), ref.Lefts()) {
				return fmt.Errorf("op %d: lefts %v, reference %v", i/3, b.Lefts(), ref.Lefts())
			}
			for k := int64(0); k < 8; k++ {
				if b.DegreeLeft(k) != ref.DegreeLeft(k) || b.HasRight(k) != ref.HasRight(k) {
					return fmt.Errorf("op %d: key %d: degree %d, reference %d; has right %v, reference %v",
						i/3, k, b.DegreeLeft(k), ref.DegreeLeft(k), b.HasRight(k), ref.HasRight(k))
				}
			}
			if brute := bruteCover(t, leftW, rightW, slices.Collect(maps.Keys(edges))); !sameCover(got, brute) {
				return fmt.Errorf("op %d: cover %+v, brute force %+v", i/3, got, brute)
			}
		}
	}
	return nil
}

// TestQuickBipartiteMatchesReference: on random operation sequences the
// solver returns the same covers and flow value as the general network
// it replaced, and both return the canonical minimum cover.
func TestQuickBipartiteMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*(1+rng.Intn(80)))
		rng.Read(data)
		if err := matchReference(t, data); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzBipartiteMatchesReference is the same property over
// engine-mutated operation sequences; its seed corpus is in
// testdata/fuzz.
func FuzzBipartiteMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := matchReference(t, data); err != nil {
			t.Fatal(err)
		}
	})
}
