package gds

import "testing"

// BenchmarkGDSAdmit measures Greedy-Dual-Size admissions with eviction
// pressure.
func BenchmarkGDSAdmit(b *testing.B) {
	c, err := New(1<<30, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Admit(Entry{
			Key:  int64(i % 256),
			Size: int64(i%64+1) << 20,
			Cost: int64(i%64+1) << 20,
		}); !ok {
			b.Fatalf("admission %d rejected", i)
		}
	}
}
