package flow

import (
	"runtime"
	"testing"
)

// newChurn returns a solver holding the 64 update vertices churnRound
// draws from.
func newChurn(tb testing.TB) *Bipartite {
	bip := NewBipartite()
	for u := int64(0); u < 64; u++ {
		if err := bip.AddRight(u, u%7+1); err != nil {
			tb.Fatal(err)
		}
	}
	return bip
}

// churnRound is one step of VCover's inner loop: add query i and its
// edges, solve, remove covered updates and the queries the remainder
// graph drops.
func churnRound(tb testing.TB, bip *Bipartite, i int) {
	q := int64(i)
	if err := bip.AddLeft(q, int64(i%11+1)); err != nil {
		tb.Fatal(err)
	}
	for k := int64(0); k < 3; k++ {
		u := (q*3 + k) % 64
		if !bip.HasRight(u) {
			if err := bip.AddRight(u, u%7+1); err != nil {
				tb.Fatal(err)
			}
		}
		if err := bip.Connect(q, u); err != nil {
			tb.Fatal(err)
		}
	}
	cover := bip.Solve()
	for _, u := range cover.Right {
		bip.RemoveRight(u)
	}
	for _, l := range bip.Lefts() {
		if !cover.ContainsLeft(l) || bip.DegreeLeft(l) == 0 {
			bip.RemoveLeft(l)
		}
	}
}

// BenchmarkIncrementalVertexCover measures the incremental min-weight
// vertex cover under churn: add a query + edges, solve, remove covered
// updates — VCover's inner loop.
func BenchmarkIncrementalVertexCover(b *testing.B) {
	bip := newChurn(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churnRound(b, bip, i)
	}
}

// TestBipartiteFootprintFollowsLiveGraph: under churn that keeps about
// fifty vertices live, the heap after 100,000 rounds is within a small
// slack of the heap after 10,000: removed vertices and edges free their
// slots instead of leaving tombstones.
func TestBipartiteFootprintFollowsLiveGraph(t *testing.T) {
	const slack = 256 << 10
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	bip := newChurn(t)
	var early uint64
	for i := 0; i < 100_000; i++ {
		churnRound(t, bip, i)
		if i+1 == 10_000 {
			early = heap()
		}
	}
	if late := heap(); late > early+slack {
		t.Errorf("heap grew from %d KiB at round 10,000 to %d KiB at round 100,000 (%d vertex and %d arc slots, %d live vertices)",
			early>>10, late>>10, len(bip.verts), len(bip.arcs), len(bip.left)+len(bip.right))
	}
	runtime.KeepAlive(bip)
}
