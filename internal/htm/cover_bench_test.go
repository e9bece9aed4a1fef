package htm

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/deltacache/delta/internal/geom"
)

// generatorCaps draws n cone-search caps with the base workload
// generator's radius mix: 0.3–2° cones, and 2 % wide scans of 15–60°.
func generatorCaps(n int) []geom.Cap {
	rng := rand.New(rand.NewSource(28))
	caps := make([]geom.Cap, n)
	for i := range caps {
		radius := 0.3 + rng.Float64()*1.7
		if rng.Float64() < 0.02 {
			radius = 15 + rng.Float64()*45
		}
		caps[i] = geom.NewCap(randomPoint(rng), radius)
	}
	return caps
}

// BenchmarkDenseCover times one Partition.Cover on complete levels: the
// cluster workloads' level-5 mesh and the million-object soak's level 9.
func BenchmarkDenseCover(b *testing.B) {
	caps := generatorCaps(256)
	for _, level := range []int{5, 9} {
		b.Run(fmt.Sprintf("level%d", level), func(b *testing.B) {
			p, err := Build(nil, LevelObjects(level))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := p.Cover(caps[i%len(caps)]); len(got) == 0 {
					b.Fatal("empty cover")
				}
			}
		})
	}
}

// BenchmarkHTMCover times the query→object mapping on the paper's
// 68-object kept subset.
func BenchmarkHTMCover(b *testing.B) {
	p, err := Build(nil, 68)
	if err != nil {
		b.Fatal(err)
	}
	caps := make([]geom.Cap, 64)
	for i := range caps {
		caps[i] = geom.CapFromRADec(float64(i*5%360), float64(i%120-60), 1.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Cover(caps[i%len(caps)]); len(got) == 0 {
			b.Fatal("empty cover")
		}
	}
}

// BenchmarkHTMLocate measures point location at the paper's default
// granularity.
func BenchmarkHTMLocate(b *testing.B) {
	pts := make([]geom.Vec3, 128)
	for i := range pts {
		pts[i] = geom.FromRADec(float64(i*7%360), float64(i%160-80))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Locate(pts[i%len(pts)], 5); err != nil {
			b.Fatal(err)
		}
	}
}
