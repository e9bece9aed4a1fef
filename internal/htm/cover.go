package htm

import (
	"math"

	"github.com/deltacache/delta/internal/geom"
)

// band is the half-width, in cosine or sine units, of the zone around
// each decision boundary inside which the dot-product tests defer to
// the exact angle arithmetic. Cosine and sine change by at most one per
// radian, so a dot product more than band away from its threshold puts
// the true angle more than band radians away from its own — a margin
// the angle arithmetic's rounding (≲ 1e-11 rad on the edges accepted
// below) cannot cross.
const band = 1e-9

// minEdgeSine is the shortest edge (as the sine of its arc) whose great
// circle the dot-product edge test trusts. Below it the computed pole
// carries a relative error that could carry the angle arithmetic's
// on-arc decision across its 1e-12 slack. Mesh edges are that short
// from level 14 on, where every edge test takes the exact path.
const minEdgeSine = 1e-4

// geometry is a trixel's bounding circle: its center, exactly
// Trixel.Center, and the cosine and sine of its angular radius, accurate
// to rounding against Trixel.BoundingRadius. Partitions build it once
// per trixel at construction.
type geometry struct {
	center       geom.Vec3
	cosBR, sinBR float64
}

func geometryOf(t *Trixel) geometry {
	c := t.Center()
	// The farthest vertex has the smallest dot. Its cross product gives
	// the sine accurately at every level, where √(1−cos²) would lose it
	// on small trixels.
	far := t.V[0]
	cosBR := c.Dot(far)
	for _, v := range t.V[1:] {
		if d := c.Dot(v); d < cosBR {
			cosBR, far = d, v
		}
	}
	return geometry{center: c, cosBR: cosBR, sinBR: c.Cross(far).Norm()}
}

// capTest is a cap prepared once per cover: its radius r — the angle
// the exact tests compare against — with r's cosine and sine, and the
// unit axis the dot products use.
type capTest struct {
	c          geom.Cap
	axis       geom.Vec3
	r          float64
	cosR, sinR float64
	// exact routes every test to the angle arithmetic, for a center
	// whose norm is zero, tiny, huge or not finite: normalizing it would
	// lose the accuracy the bands rely on.
	exact bool
}

func prepareCap(c geom.Cap) capTest {
	r := math.Acos(clamp(c.CosRadius, -1, 1))
	n := c.Center.Norm()
	return capTest{
		c:     c,
		axis:  c.Center.Scale(1 / n),
		r:     r,
		cosR:  math.Cos(r),
		sinR:  math.Sin(r),
		exact: !(n > 1e-100 && n < 1e100),
	}
}

// intersects is Trixel.IntersectsCap on a prepared cap and the trixel's
// geometry g.
func (ct *capTest) intersects(t *Trixel, g *geometry) bool {
	if ct.missesCircle(t, g) {
		return false
	}
	for i := range t.V {
		if ct.c.Contains(t.V[i]) {
			return true
		}
	}
	if t.Contains(ct.c.Center) {
		return true
	}
	for i := 0; i < 3; i++ {
		if ct.reachesArc(t.V[i], t.V[(i+1)%3]) {
			return true
		}
	}
	return false
}

// missesCircle reports whether the angle from the trixel's center to
// the cap's exceeds r plus the bounding radius br. While sin(r+br)
// shows r+br is clearly inside (0, π), the dot-product test compares
// against cos(r+br) from the sum formula.
func (ct *capTest) missesCircle(t *Trixel, g *geometry) bool {
	if sinS := ct.sinR*g.cosBR + ct.cosR*g.sinBR; !ct.exact && sinS > band {
		cosS := ct.cosR*g.cosBR - ct.sinR*g.sinBR
		d := g.center.Dot(ct.axis)
		if d < cosS-band {
			return true
		}
		if d > cosS+band {
			return false
		}
	}
	return g.center.AngleTo(ct.c.Center) > ct.r+t.BoundingRadius()
}

// reachesArc reports arcDistance(center, a, b) <= r. Let n be the unit
// pole of the edge's great circle: |axis·n| is the sine of the distance
// to that circle, and the signs of axis·(n×a) and axis·(b×n) say
// whether the circle's closest point lies inside the arc or beyond an
// endpoint, which is then the arc's closest point. Near an endpoint the
// two distances agree to rounding, so the sign tests need no band.
func (ct *capTest) reachesArc(a, b geom.Vec3) bool {
	if !ct.exact {
		n := a.Cross(b)
		if nn := n.Norm(); nn >= minEdgeSine {
			n = n.Scale(1 / nn)
			// Near the pole, the closest point is ill-conditioned.
			if s := math.Abs(ct.axis.Dot(n)); s < 1-band {
				if ct.axis.Dot(n.Cross(a)) < 0 || ct.axis.Dot(b.Cross(n)) < 0 {
					m := math.Max(ct.axis.Dot(a), ct.axis.Dot(b))
					if m > ct.cosR+band {
						return true
					}
					if m < ct.cosR-band {
						return false
					}
				} else if ct.r < math.Pi/2 {
					// asin(s) is the distance; sine rises on [0, π/2].
					if s < ct.sinR-band {
						return true
					}
					if s > ct.sinR+band {
						return false
					}
				}
			}
		}
	}
	return arcDistance(ct.c.Center, a, b) <= ct.r
}
