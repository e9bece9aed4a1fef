package htm

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"github.com/deltacache/delta/internal/geom"
)

// intersectsCapReference is the angle-arithmetic cap test the
// dot-product kernel replaced: the oracle IntersectsCap and both covers
// must match bit for bit.
func intersectsCapReference(t Trixel, c geom.Cap) bool {
	capR := math.Acos(clamp(c.CosRadius, -1, 1))
	if t.Center().AngleTo(c.Center) > capR+t.BoundingRadius() {
		return false
	}
	for _, v := range t.V {
		if c.Contains(v) {
			return true
		}
	}
	if t.Contains(c.Center) {
		return true
	}
	for i := 0; i < 3; i++ {
		if arcDistance(c.Center, t.V[i], t.V[(i+1)%3]) <= capR {
			return true
		}
	}
	return false
}

// coverReference is Partition.Cover's walk on the oracle, deriving
// every trixel from its parent instead of reading the partition's table.
func coverReference(p *Partition, c geom.Cap) []int {
	var out []int
	var walk func(t Trixel)
	walk = func(t Trixel) {
		if !intersectsCapReference(t, c) {
			return
		}
		if t.Level() == p.level {
			out = append(out, p.object(t.ID))
			return
		}
		for _, ch := range t.Children() {
			walk(ch)
		}
	}
	for _, r := range Roots() {
		walk(r)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// randomTrixel returns the trixel at a random level in [0, maxLevel]
// holding a random point.
func randomTrixel(rng *rand.Rand, maxLevel int) Trixel {
	t, err := Locate(randomPoint(rng), rng.Intn(maxLevel+1))
	if err != nil {
		panic(err)
	}
	return t
}

// capWithRadius builds a cap from a center and a radius in radians.
func capWithRadius(center geom.Vec3, r float64) geom.Cap {
	return geom.Cap{Center: center, CosRadius: math.Cos(r)}
}

// adversarialCap draws a cap aimed at t's decision boundaries: centers
// on t's vertices, edge midpoints, center and the antipodes and poles
// of those, or anywhere; radii near 0, near 90°, at or past 180°, or
// exactly at the distance to a vertex, to an edge's great circle, or to
// the bounding circle.
func adversarialCap(rng *rand.Rand, t Trixel) geom.Cap {
	i := rng.Intn(3)
	a, b := t.V[i], t.V[(i+1)%3]
	if rng.Intn(10) == 0 {
		// Centered on the pole of an edge, on the far side from the
		// trixel, reaching just short of the edge: the edge test's
		// closest point is ill-conditioned there.
		return capWithRadius(a.Cross(b).Normalize().Scale(-1), math.Pi/2-rng.Float64()*2*t.BoundingRadius())
	}
	var center geom.Vec3
	switch rng.Intn(8) {
	case 0:
		center = a
	case 1:
		center = mid(a, b)
	case 2:
		center = t.Center()
	case 3:
		center = a.Scale(-1)
	case 4:
		center = a.Cross(b).Normalize()
	case 5:
		center = perturb(rng, a, math.Pow(10, -float64(rng.Intn(10))))
	default:
		center = randomPoint(rng)
	}
	switch rng.Intn(9) {
	case 0:
		return capWithRadius(center, []float64{0, 1e-15, 1e-9, 1e-6}[rng.Intn(4)])
	case 1:
		return capWithRadius(center, math.Pi/2+[]float64{0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-6}[rng.Intn(6)])
	case 2:
		return geom.Cap{Center: center, CosRadius: []float64{-1, -1 - 1e-12, -2, math.Cos(math.Pi - 1e-9)}[rng.Intn(4)]}
	case 3:
		// Exactly through a vertex.
		return geom.Cap{Center: center, CosRadius: center.Dot(t.V[rng.Intn(3)])}
	case 4:
		// Tangent to an edge's great circle.
		return capWithRadius(center, math.Asin(math.Min(1, math.Abs(center.Dot(a.Cross(b).Normalize())))))
	case 5:
		// Touching the bounding circle.
		return capWithRadius(center, math.Max(0, t.Center().AngleTo(center)-t.BoundingRadius()))
	case 6:
		return geom.NewCap(center, 0.3+rng.Float64()*1.7)
	default:
		return capWithRadius(center, rng.Float64()*math.Pi*1.1)
	}
}

// trixelCap is one quick.Check input: a trixel at levels 0–9 and a cap.
type trixelCap struct {
	T Trixel
	C geom.Cap
}

func (trixelCap) Generate(rng *rand.Rand, _ int) reflect.Value {
	t := randomTrixel(rng, 9)
	var c geom.Cap
	if rng.Intn(4) == 0 {
		c = geom.NewCap(randomPoint(rng), rng.Float64()*180)
	} else {
		c = adversarialCap(rng, t)
	}
	return reflect.ValueOf(trixelCap{T: t, C: c})
}

func TestQuickIntersectsCapMatchesReference(t *testing.T) {
	prop := func(in trixelCap) bool {
		return in.T.IntersectsCap(in.C) == intersectsCapReference(in.T, in.C)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200000, Rand: rand.New(rand.NewSource(28))}); err != nil {
		t.Fatal(err)
	}
}

// TestIntersectsCapDegenerateCaps covers caps whose center is not a
// unit vector — zero, non-finite, or scaled so far that normalizing it
// loses precision — or whose radius is NaN.
func TestIntersectsCapDegenerateCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	centers := []geom.Vec3{{}, {X: math.NaN()}, {X: math.Inf(1)}, {X: 1e200, Y: 1}}
	scales := []float64{1e-160, 1e-200, 1e160, 3}
	for i := 0; i < 20000; i++ {
		tr := randomTrixel(rng, 6)
		c := adversarialCap(rng, tr)
		if i%8 == 0 {
			c.Center = centers[rng.Intn(len(centers))]
		} else {
			c.Center = c.Center.Scale(scales[rng.Intn(len(scales))])
		}
		if i%9 == 0 {
			c.CosRadius = math.NaN()
		}
		if got, want := tr.IntersectsCap(c), intersectsCapReference(tr, c); got != want {
			t.Fatalf("%s, cap %+v: IntersectsCap %v, reference %v", tr, c, got, want)
		}
	}
}

// coverCaps mixes the generator's radii, wide scans and caps aimed at
// the boundaries of trixels at the given level.
func coverCaps(rng *rand.Rand, level, n int) []geom.Cap {
	caps := make([]geom.Cap, n)
	for i := range caps {
		switch i % 4 {
		case 0:
			caps[i] = geom.NewCap(randomPoint(rng), 0.3+rng.Float64()*1.7)
		case 1:
			caps[i] = geom.NewCap(randomPoint(rng), 5+rng.Float64()*55/float64(level+1))
		default:
			caps[i] = adversarialCap(rng, randomTrixel(rng, level))
		}
	}
	return caps
}

// checkCoverMatchesReference builds a partition of n objects and
// compares its covers of the given caps against the oracle walk.
func checkCoverMatchesReference(t *testing.T, weight WeightFunc, n int, caps []geom.Cap) {
	t.Helper()
	p, err := Build(weight, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caps {
		if got, want := p.Cover(c), coverReference(p, c); !slices.Equal(got, want) {
			t.Fatalf("%d objects, cap %+v: cover %v, reference %v", n, c, got, want)
		}
	}
}

// TestDenseCoverMatchesReference covers complete (dense) levels, where
// every trixel of the level is its own object.
func TestDenseCoverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	// Level 8 walks its last level on derived geometry.
	for _, level := range []int{0, 2, 5, 8} {
		n := 400
		if level == 8 {
			n = 40
		}
		checkCoverMatchesReference(t, nil, LevelObjects(level), coverCaps(rng, level, n))
	}
}

// TestPartitionCoverMatchesReference covers kept subsets, where every
// other trixel maps to the kept object with the nearest center.
func TestPartitionCoverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{532, 68} {
		checkCoverMatchesReference(t, gaussianWeight, n, coverCaps(rng, 6, 600))
	}
}

// TestCoverConcurrent covers from 8 goroutines at once on a complete
// level and a kept subset, each freshly built and never covered before
// (run under -race): every result equals a twin partition's sequential
// one, so the geometry covers read is built at construction, not filled
// in on first use.
func TestCoverConcurrent(t *testing.T) {
	builds := []func() (*Partition, error){
		func() (*Partition, error) { return Build(nil, LevelObjects(5)) },
		func() (*Partition, error) { return Build(gaussianWeight, 68) },
	}
	caps := coverCaps(rand.New(rand.NewSource(32)), 5, 64)
	for _, build := range builds {
		twin, err := build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]int, len(caps))
		for i, c := range caps {
			want[i] = twin.Cover(c)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range caps {
					i := (k + g*8) % len(caps)
					if got := p.Cover(caps[i]); !slices.Equal(got, want[i]) {
						t.Errorf("goroutine %d, cap %d: cover %v, sequential %v", g, i, got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
