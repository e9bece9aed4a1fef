package htm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/deltacache/delta/internal/geom"
)

// objectTrixels returns every object's trixel, by object index.
func objectTrixels(p *Partition) []Trixel {
	out := make([]Trixel, p.N())
	for i := range out {
		out[i] = trixelOf(p.ObjectTrixelID(i))
	}
	return out
}

func TestBuildLeveledExactCounts(t *testing.T) {
	for _, n := range []int{8, 10, 20, 68, 91, 134, 285, 532} {
		p, err := Build(gaussianWeight, n)
		if err != nil {
			t.Fatalf("Build(%d): %v", n, err)
		}
		if p.N() != n || len(p.Weights()) != n {
			t.Errorf("n=%d: got %d objects", n, p.N())
		}
	}
}

func TestBuildLeveledTooSmall(t *testing.T) {
	if _, err := Build(nil, 5); err == nil {
		t.Error("Build(5) should fail")
	}
}

func TestBuildLeveledUniformLevel(t *testing.T) {
	// All objects of a partition sit at the same HTM level (the paper's
	// equi-area construction).
	p, err := Build(gaussianWeight, 68)
	if err != nil {
		t.Fatal(err)
	}
	objs := objectTrixels(p)
	level := objs[0].Level()
	for _, tr := range objs {
		if tr.Level() != level {
			t.Fatalf("mixed levels: %d and %d", level, tr.Level())
		}
	}
	// 68 objects need level 2 (128 trixels).
	if level != 2 {
		t.Errorf("level = %d, want 2", level)
	}
}

func TestBuildLeveledEquiArea(t *testing.T) {
	p, err := Build(gaussianWeight, 91)
	if err != nil {
		t.Fatal(err)
	}
	minA, maxA := math.Inf(1), 0.0
	for _, tr := range objectTrixels(p) {
		a := tr.AreaSr()
		if a < minA {
			minA = a
		}
		if a > maxA {
			maxA = a
		}
	}
	// Spherical-triangle subdivision is not perfectly uniform, but
	// areas must agree within a factor ~2 (they do for HTM).
	if maxA > 2.5*minA {
		t.Errorf("areas too spread: %v .. %v", minA, maxA)
	}
}

func TestBuildLeveledKeepsDensest(t *testing.T) {
	// The kept objects must be the heaviest trixels of the level.
	p, err := Build(gaussianWeight, 20)
	if err != nil {
		t.Fatal(err)
	}
	kept := make(map[uint64]bool, 20)
	minKept := math.Inf(1)
	for i, w := range p.Weights() {
		kept[p.ObjectTrixelID(i)] = true
		minKept = min(minKept, w)
	}
	// Walk all level-1 trixels (20 objects → level 1, 32 trixels) and
	// verify no dropped trixel outweighs a kept one.
	for _, r := range Roots() {
		for _, ch := range r.Children() {
			if kept[ch.ID] {
				continue
			}
			if w := gaussianWeight(ch); w > minKept+1e-12 {
				t.Errorf("dropped trixel %s (w=%v) outweighs kept minimum %v",
					Name(ch.ID), w, minKept)
			}
		}
	}
}

func TestBuildLeveledEveryPointMapsToObject(t *testing.T) {
	p, err := Build(gaussianWeight, 68)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 5000; i++ {
		idx := p.ObjectFor(randomPoint(rng))
		if idx < 0 || idx >= 68 {
			t.Fatalf("ObjectFor out of range: %d", idx)
		}
	}
}

func TestBuildLeveledCoverConsistency(t *testing.T) {
	p, err := Build(gaussianWeight, 68)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 300; i++ {
		center := randomPoint(rng)
		cover := p.Cover(geom.NewCap(center, rng.Float64()*5+0.1))
		if len(cover) == 0 {
			t.Fatal("empty cover")
		}
		for _, idx := range cover {
			if idx < 0 || idx >= 68 {
				t.Fatalf("cover index out of range: %d", idx)
			}
		}
	}
}

func TestBuildLeveledDefaultWeightIsArea(t *testing.T) {
	p, err := Build(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.N(); got != 8 {
		t.Fatalf("objects = %d", got)
	}
	// With area weight and n=8, the roots themselves are the objects.
	for _, tr := range objectTrixels(p) {
		if tr.Level() != 0 {
			t.Errorf("n=8 should keep the roots, got level %d", tr.Level())
		}
	}
}
