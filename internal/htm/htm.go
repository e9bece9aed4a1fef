// Package htm implements the Hierarchical Triangular Mesh (HTM), the
// recursively-defined quad-tree-like spatial index SDSS uses to
// partition the sky (Kunszt, Szalay, Thakar 2001). The repository's data
// objects in the paper are HTM partitions of the PhotoObj table; Section
// 6.2 evaluates object sets of 10–532 partitions obtained from different
// mesh levels.
//
// The mesh starts from the eight faces of an octahedron (trixels N0–N3
// and S0–S3) and subdivides each spherical triangle into four children
// by connecting edge midpoints. Trixel IDs follow the standard HTM
// scheme: roots are 8–15 and child i of trixel t has ID 4t+i, so the ID
// encodes the full path and the level is recoverable from the bit
// length.
//
// A cone search maps to data objects by a cover: the walk from the
// roots that keeps every trixel the cap intersects (Partition.Cover).
// Its one predicate, Trixel.IntersectsCap, costs dot products, not
// arctangents. The cap is prepared once per cover: its radius r with
// r's cosine and sine. Each trixel's geometry — its center and the
// cosine and sine of its bounding radius — is built once when the
// partition is constructed, in the partition's one table of the top
// eight levels (finer levels derive it from the vertices during the
// walk). The
// bounding-circle test then compares a dot product against cos(r+br)
// from the sum formula, and each edge test compares one against sin r
// or cos r. A dot product within 1e-9 of its threshold falls back to
// the exact angle arithmetic; outside that band both reach the same
// answer (see IntersectsCap), so covers are bit-identical to the angle
// arithmetic's. Built partitions are immutable and safe for concurrent
// covers.
package htm

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/deltacache/delta/internal/geom"
)

// octahedron vertices in the standard HTM order.
var octV = [6]geom.Vec3{
	{X: 0, Y: 0, Z: 1},  // v0: north pole
	{X: 1, Y: 0, Z: 0},  // v1
	{X: 0, Y: 1, Z: 0},  // v2
	{X: -1, Y: 0, Z: 0}, // v3
	{X: 0, Y: -1, Z: 0}, // v4
	{X: 0, Y: 0, Z: -1}, // v5: south pole
}

// rootSpec lists the vertex triples of the eight root trixels, in ID
// order 8..15 (S0..S3, N0..N3), matching Kunszt et al.
var rootSpec = [8][3]int{
	{1, 5, 2}, // S0 (ID 8)
	{2, 5, 3}, // S1 (ID 9)
	{3, 5, 4}, // S2 (ID 10)
	{4, 5, 1}, // S3 (ID 11)
	{1, 0, 4}, // N0 (ID 12)
	{4, 0, 3}, // N1 (ID 13)
	{3, 0, 2}, // N2 (ID 14)
	{2, 0, 1}, // N3 (ID 15)
}

// Trixel is one spherical triangle of the mesh.
type Trixel struct {
	// ID is the HTM identifier; see the package comment for the
	// encoding.
	ID uint64
	// V holds the trixel's unit-vector vertices, counterclockwise as
	// seen from outside the sphere.
	V [3]geom.Vec3
}

// roots holds the eight level-0 trixels, built once.
var roots = func() [8]Trixel {
	var r [8]Trixel
	for i, spec := range rootSpec {
		r[i] = Trixel{
			ID: uint64(8 + i),
			V:  [3]geom.Vec3{octV[spec[0]], octV[spec[1]], octV[spec[2]]},
		}
	}
	return r
}()

// Roots returns the eight level-0 trixels.
func Roots() [8]Trixel { return roots }

// Level returns the trixel's subdivision depth: 0 for roots, increasing
// by one per subdivision.
func (t Trixel) Level() int {
	// Roots use 4 bits (1000..1111); each level appends 2 bits.
	return (bits.Len64(t.ID) - 4) / 2
}

// Children subdivides the trixel into its four children by connecting
// the edge midpoints, preserving orientation.
func (t Trixel) Children() [4]Trixel {
	w0 := mid(t.V[1], t.V[2])
	w1 := mid(t.V[0], t.V[2])
	w2 := mid(t.V[0], t.V[1])
	return [4]Trixel{
		{ID: t.ID*4 + 0, V: [3]geom.Vec3{t.V[0], w2, w1}},
		{ID: t.ID*4 + 1, V: [3]geom.Vec3{t.V[1], w0, w2}},
		{ID: t.ID*4 + 2, V: [3]geom.Vec3{t.V[2], w1, w0}},
		{ID: t.ID*4 + 3, V: [3]geom.Vec3{w0, w1, w2}},
	}
}

// Contains reports whether the unit vector lies inside the trixel. A
// point lies inside a spherical triangle if it is on the inner side of
// all three edge planes. Boundary points are considered inside, so a
// point on a shared edge belongs to more than one trixel; Locate breaks
// the tie deterministically by taking the first matching child.
func (t Trixel) Contains(v geom.Vec3) bool {
	const tol = -1e-12 // tolerate rounding on edges
	return t.V[0].Cross(t.V[1]).Dot(v) >= tol &&
		t.V[1].Cross(t.V[2]).Dot(v) >= tol &&
		t.V[2].Cross(t.V[0]).Dot(v) >= tol
}

// Center returns the trixel's (normalized) centroid.
func (t Trixel) Center() geom.Vec3 {
	return t.V[0].Add(t.V[1]).Add(t.V[2]).Normalize()
}

// BoundingRadius returns the angular radius, in radians, of the smallest
// cap centered on Center() that contains the trixel.
func (t Trixel) BoundingRadius() float64 {
	c := t.Center()
	r := 0.0
	for _, v := range t.V {
		if a := c.AngleTo(v); a > r {
			r = a
		}
	}
	return r
}

// AreaSr returns the trixel's solid angle in steradians.
func (t Trixel) AreaSr() float64 {
	return geom.TriangleAreaSr(t.V[0], t.V[1], t.V[2])
}

// IntersectsCap reports whether the trixel intersects the cap. The test
// is exact up to floating-point rounding: a quick bounding-circle
// rejection, then (a) any trixel vertex inside the cap, (b) the cap
// center inside the trixel, or (c) the cap reaching one of the trixel's
// edge arcs. Keeping this tight matters: over-coverage inflates B(q) and
// with it every query's object footprint.
//
// The bounding-circle and edge-arc tests compare dot products against
// the cosine or sine of the cap radius r (prepared once per cap) and of
// r plus the bounding radius (from the trixel's geometry, which
// partitions build once per trixel). Only a dot product within 1e-9 of
// its threshold falls back to the angle arithmetic (atan2 angles and
// arcDistance). Cosine and sine move by at most one per radian, so
// outside that band the true angles are more than 1e-9 rad from the
// threshold: both computations, each accurate to far less, reach the
// same answer, and the result is bit-identical to the angle arithmetic
// alone.
func (t Trixel) IntersectsCap(c geom.Cap) bool {
	ct := prepareCap(c)
	g := geometryOf(&t)
	return ct.intersects(&t, &g)
}

// arcDistance returns the angular distance (radians) from point p to the
// great-circle arc between a and b. It is the exact fallback of the
// cap-cover edge test.
func arcDistance(p, a, b geom.Vec3) float64 {
	pole := a.Cross(b)
	if pole.Norm() == 0 {
		// Degenerate edge: distance to the endpoint.
		return p.AngleTo(a)
	}
	pole = pole.Normalize()
	// Closest point on the full great circle.
	q := p.Sub(pole.Scale(p.Dot(pole)))
	if q.Norm() == 0 {
		// p is at the circle's pole: equidistant from the whole circle.
		return math.Pi / 2
	}
	q = q.Normalize()
	// q lies on the arc iff the arc's endpoints bracket it.
	if a.AngleTo(q)+q.AngleTo(b) <= a.AngleTo(b)+1e-12 {
		return p.AngleTo(q)
	}
	return math.Min(p.AngleTo(a), p.AngleTo(b))
}

// String implements fmt.Stringer.
func (t Trixel) String() string {
	return fmt.Sprintf("trixel(%s)", Name(t.ID))
}

// Name renders an HTM ID in the conventional letter form, e.g. "N012".
func Name(id uint64) string {
	if id < 8 {
		return fmt.Sprintf("invalid(%d)", id)
	}
	// Collect the 2-bit digits from the bottom up to the root.
	var digits []byte
	for id >= 32 {
		digits = append(digits, byte('0'+id&3))
		id >>= 2
	}
	var prefix string
	switch id {
	case 8, 9, 10, 11:
		prefix = fmt.Sprintf("S%d", id-8)
	case 12, 13, 14, 15:
		prefix = fmt.Sprintf("N%d", id-12)
	default:
		return fmt.Sprintf("invalid(%d)", id)
	}
	// digits were collected leaf-to-root; reverse.
	for i, j := 0, len(digits)-1; i < j; i, j = i+1, j-1 {
		digits[i], digits[j] = digits[j], digits[i]
	}
	return prefix + string(digits)
}

// Locate returns the level-`level` trixel containing v, descending from
// the roots. Points on shared edges resolve to the first matching
// trixel in ID order, so the result is deterministic.
func Locate(v geom.Vec3, level int) (Trixel, error) {
	if level < 0 || level > 25 {
		return Trixel{}, fmt.Errorf("htm: level %d out of range [0,25]", level)
	}
	v = v.Normalize()
	cur, ok := rootContaining(v)
	if !ok {
		return Trixel{}, fmt.Errorf("htm: no root trixel contains %v", v)
	}
	for l := 0; l < level; l++ {
		children := cur.Children()
		cur = children[pick(children[:], v)]
	}
	return cur, nil
}

func rootContaining(v geom.Vec3) (Trixel, bool) {
	for i := range roots {
		if roots[i].Contains(v) {
			return roots[i], true
		}
	}
	return Trixel{}, false
}

func mid(a, b geom.Vec3) geom.Vec3 { return a.Add(b).Normalize() }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
