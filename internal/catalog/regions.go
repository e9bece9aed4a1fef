package catalog

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
)

// RegionResolver is a node's sky-region source: it resolves a client's
// sky region straight from the survey (CoverCap), and grows the survey
// with the births the node adopts, in ID order. It is safe for
// concurrent use. A nil *RegionResolver is a node with no region
// source: it refuses region queries and grows nothing.
type RegionResolver struct {
	s *Survey

	mu   sync.Mutex
	held map[model.ObjectID]model.Birth // births above s.NextID()
}

// maxHeldBirths bounds the births Grow holds while it waits for a
// lower ID to arrive.
const maxHeldBirths = 1024

// NewRegionResolver returns a resolver over s, or nil when s is nil.
func NewRegionResolver(s *Survey) *RegionResolver {
	if s == nil {
		return nil
	}
	return &RegionResolver{s: s, held: make(map[model.ObjectID]model.Birth)}
}

// Region resolves a client's sky region (center and radius in degrees)
// to B(q): the IDs CoverCap gives for the cap, in its order. A region
// that is not a cap on the sphere (a non-finite number, |Dec| above
// 90°, a radius outside (0°, 180°]) is an error, so is one covering no
// objects, and so is every region on a nil resolver.
func (r *RegionResolver) Region(ra, dec, radiusDeg float64) ([]model.ObjectID, error) {
	switch {
	case r == nil:
		return nil, errors.New("node has no region source; send explicit object lists")
	case !finite(ra) || !finite(dec) || !finite(radiusDeg):
		return nil, fmt.Errorf("region (%v, %v, r=%v°) is not finite", ra, dec, radiusDeg)
	case math.Abs(dec) > 90:
		return nil, fmt.Errorf("region Dec %v° is outside [-90°, 90°]", dec)
	case radiusDeg <= 0 || radiusDeg > 180:
		return nil, fmt.Errorf("region radius %v° is outside (0°, 180°]", radiusDeg)
	}
	ids := r.s.CoverCap(geom.CapFromRADec(ra, dec, radiusDeg))
	if len(ids) == 0 {
		return nil, fmt.Errorf("region (%v, %v, r=%v°) covers no objects", ra, dec, radiusDeg)
	}
	return ids, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Grow adds births to the survey in ID order. Adoption follows arrival
// order, not ID order, so births the survey already holds are skipped
// and a birth above NextID is held until the gap below it fills.
// Holding is bounded by maxHeldBirths (the birth at NextID is always
// taken); a birth refused for that reason, or one the survey rejects,
// is reported in the error, and the rest still grow.
func (r *RegionResolver) Grow(births []model.Birth) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.s.NextID()
	var errs []error
	for _, b := range births {
		switch id := b.Object.ID; {
		case id < next:
		case len(r.held) >= maxHeldBirths && id != next:
			errs = append(errs, fmt.Errorf("dropped birth %d: %d births already wait for %d", id, len(r.held), next))
		default:
			r.held[id] = b
		}
	}
	for {
		b, ok := r.held[next]
		if !ok {
			break
		}
		delete(r.held, next)
		if err := r.s.AddObject(b); err != nil {
			errs = append(errs, err)
			break
		}
		next = r.s.NextID()
	}
	return errors.Join(errs...)
}
