package flow

import "testing"

// BenchmarkIncrementalVertexCover measures the incremental min-weight
// vertex cover under churn: add a query + edges, solve, remove covered
// updates — VCover's inner loop.
func BenchmarkIncrementalVertexCover(b *testing.B) {
	bip := NewBipartite()
	for u := int64(0); u < 64; u++ {
		if err := bip.AddRight(u, u%7+1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := int64(i)
		if err := bip.AddLeft(q, int64(i%11+1)); err != nil {
			b.Fatal(err)
		}
		for k := int64(0); k < 3; k++ {
			u := (q*3 + k) % 64
			if !bip.HasRight(u) {
				if err := bip.AddRight(u, u%7+1); err != nil {
					b.Fatal(err)
				}
			}
			if err := bip.Connect(q, u); err != nil {
				b.Fatal(err)
			}
		}
		cover := bip.Solve()
		for _, u := range cover.Right {
			if err := bip.RemoveRight(u); err != nil {
				b.Fatal(err)
			}
		}
		for _, l := range bip.Lefts() {
			if !cover.ContainsLeft(l) || bip.DegreeLeft(l) == 0 {
				if err := bip.RemoveLeft(l); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
