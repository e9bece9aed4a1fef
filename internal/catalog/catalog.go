// Package catalog builds the synthetic survey the experiments run
// against: a PhotoObj-like star catalog with a clustered sky-density
// model, partitioned into data objects by a keep-the-densest HTM mesh.
//
// The paper's server is a ~1 TB SDSS PhotoObj table partitioned into 68
// HTM objects holding ~800 GB, with object sizes from 50 MB to 90 GB.
// We do not have SDSS; the substitution (documented in DESIGN.md) is a
// parametric density model that reproduces the quantities Delta's
// decisions actually depend on: the object-size distribution, the
// query→object mapping, and the spatial clustering that makes query and
// update hotspots distinct.
package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/htm"
	"github.com/deltacache/delta/internal/model"
)

// Sky is a clustered density model: a uniform background plus Gaussian
// blobs (star-forming regions, the galactic plane, survey stripes).
// Density returns relative rows per steradian.
type Sky struct {
	background float64
	blobs      []Blob
}

// Blob is one Gaussian density cluster on the sphere.
type Blob struct {
	Center geom.Vec3
	// Sigma is the angular scale in radians.
	Sigma float64
	// Weight is the blob's peak density relative to the background.
	Weight float64
	// Role labels what the workload generator uses the blob for; blobs
	// are split between query hotspots and update hotspots so the two
	// stay spatially decoupled, as observed in the paper's Figure 7(a).
	Role BlobRole
}

// BlobRole classifies a density blob for the workload generator.
type BlobRole int

const (
	// QueryHot blobs attract query campaigns.
	QueryHot BlobRole = iota + 1
	// UpdateHot blobs attract telescope scan stripes.
	UpdateHot
)

// NewSky builds a density model with the given number of blobs,
// alternating query-hot and update-hot roles. Blob centers repel each
// other lightly so hotspots do not stack.
func NewSky(seed int64, nBlobs int) *Sky {
	rng := rand.New(rand.NewSource(seed))
	sky := &Sky{background: 0.15}
	for i := 0; i < nBlobs; i++ {
		var center geom.Vec3
		// Rejection: keep blob centers at least ~25° apart when
		// possible, so query and update hotspots occupy distinct sky.
		for attempt := 0; ; attempt++ {
			center = randomUnit(rng)
			ok := true
			for _, b := range sky.blobs {
				if center.AngleTo(b.Center) < 25*math.Pi/180 {
					ok = false
					break
				}
			}
			if ok || attempt > 50 {
				break
			}
		}
		role := QueryHot
		if i%2 == 1 {
			role = UpdateHot
		}
		// Update-hot regions are the dense sky the pipeline scans
		// (galactic plane class): strong density peaks, hence the large
		// 90 GB-class objects that make full replication expensive.
		// Query-hot regions are scientifically interesting but not
		// necessarily dense (quasar fields, deep stripes): mild bumps,
		// so their objects are small enough that caching them is
		// worthwhile — the paper's hot objects are cacheable while its
		// object sizes still span 50 MB to 90 GB.
		weight := 3 + 5*rng.Float64()
		if role == QueryHot {
			weight = 0.4 + 0.8*rng.Float64()
		}
		sky.blobs = append(sky.blobs, Blob{
			Center: center,
			Sigma:  (4 + 10*rng.Float64()) * math.Pi / 180,
			Weight: weight,
			Role:   role,
		})
	}
	return sky
}

// Density returns the relative row density at a sky position.
func (s *Sky) Density(v geom.Vec3) float64 {
	d := s.background
	for _, b := range s.blobs {
		a := v.AngleTo(b.Center)
		d += b.Weight * math.Exp(-a*a/(2*b.Sigma*b.Sigma))
	}
	return d
}

// Blobs returns the blobs with the given role (all blobs if role is 0).
func (s *Sky) Blobs(role BlobRole) []Blob {
	var out []Blob
	for _, b := range s.blobs {
		if role == 0 || b.Role == role {
			out = append(out, b)
		}
	}
	return out
}

// Config parameterizes a synthetic survey.
type Config struct {
	// Seed drives every random choice; equal seeds give identical
	// surveys.
	Seed int64
	// NumObjects is the number of data objects (HTM partitions).
	NumObjects int
	// TotalSize is the summed size of all objects (paper: ~800 GB at 68
	// objects).
	TotalSize cost.Bytes
	// MinObjectSize and MaxObjectSize clamp individual object sizes
	// (paper: 50 MB to 90 GB).
	MinObjectSize cost.Bytes
	MaxObjectSize cost.Bytes
	// Blobs is the number of density clusters on the sky.
	Blobs int
	// Uniform selects the complete decomposition of one HTM level, every
	// trixel an object: NumObjects must then be exactly 8·4^level (…,
	// 32768, 131072, 524288, 2097152), and each object is weighed by one
	// density sample at its center instead of a 7-point quadrature, so
	// the build stays linear at two million objects.
	Uniform bool
}

// DefaultConfig mirrors the paper's server: 68 objects, 800 GB total,
// sizes within [50 MB, 90 GB].
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		NumObjects:    68,
		TotalSize:     800 * cost.GB,
		MinObjectSize: 50 * cost.MB,
		MaxObjectSize: 90 * cost.GB,
		Blobs:         10,
	}
}

// Survey is a fully-built synthetic repository: density model, HTM
// partition, and sized data objects.
//
// The survey grows while serving: AddObject ingests newly published
// objects (the paper's rapidly-growing repository), which join the
// universe with dense sequential IDs and attach to the partition cell
// containing their sky position, so the query→object mapping covers
// them without recomputing the mesh. The base partition built by
// NewSurvey is immutable; only the born-object extension is guarded by
// the mutex, so concurrent readers and one grower are safe.
type Survey struct {
	cfg       Config
	sky       *Sky
	partition *htm.Partition
	objects   []model.Object
	maxDens   float64

	mu         sync.RWMutex
	born       []bornObject
	bornByCell map[int][]int // partition cell index → born indexes
}

// bornObject is one live-ingested object with its sky position, its
// publication time, and the partition cell it attaches to.
type bornObject struct {
	obj  model.Object
	pos  geom.Vec3
	cell int
	t    time.Duration
}

// NewSurvey constructs the survey: the sky density model, the
// keep-the-densest HTM partition with NumObjects objects, and per-object sizes
// proportional to integrated density, clamped to the configured range
// and rescaled to the configured total.
func NewSurvey(cfg Config) (*Survey, error) {
	if cfg.NumObjects < 8 {
		return nil, fmt.Errorf("catalog: need at least 8 objects, got %d", cfg.NumObjects)
	}
	if cfg.TotalSize <= 0 {
		return nil, fmt.Errorf("catalog: total size must be positive")
	}
	if cfg.MinObjectSize > cfg.MaxObjectSize {
		return nil, fmt.Errorf("catalog: min object size exceeds max")
	}
	sky := NewSky(cfg.Seed, cfg.Blobs)
	// Equi-area partitions at a fixed HTM level, keeping the N densest
	// (the paper's construction); object sizes then follow density and
	// span the paper's 50 MB – 90 GB range.
	weight := func(t htm.Trixel) float64 { return integrateDensity(sky, t) }
	if cfg.Uniform {
		if level, exact := htm.LevelFor(cfg.NumObjects); !exact {
			return nil, fmt.Errorf("catalog: uniform partition needs 8·4^level objects (%d or %d, not %d)",
				htm.LevelObjects(max(level-1, 0)), htm.LevelObjects(level), cfg.NumObjects)
		}
		// One density sample per trixel keeps the build O(n) even at two
		// million objects, where the 7-point quadrature would cost seven
		// sky evaluations apiece.
		weight = func(t htm.Trixel) float64 { return sky.Density(t.Center()) * t.AreaSr() }
	}
	part, err := htm.Build(weight, cfg.NumObjects)
	if err != nil {
		return nil, fmt.Errorf("catalog: build partition: %w", err)
	}
	s := &Survey{cfg: cfg, sky: sky, partition: part}
	s.sizeObjects()
	s.maxDens = s.estimateMaxDensity()
	return s, nil
}

// integrateDensity approximates the integral of sky density over a
// trixel by a fixed 7-point quadrature (vertices, edge midpoints,
// centroid) times the trixel's area.
func integrateDensity(sky *Sky, t htm.Trixel) float64 {
	pts := [7]geom.Vec3{
		t.V[0], t.V[1], t.V[2],
		t.V[0].Add(t.V[1]).Normalize(),
		t.V[1].Add(t.V[2]).Normalize(),
		t.V[2].Add(t.V[0]).Normalize(),
		t.Center(),
	}
	sum := 0.0
	for _, p := range pts {
		sum += sky.Density(p)
	}
	return sum / 7 * t.AreaSr()
}

func (s *Survey) sizeObjects() {
	weights := s.partition.Weights()
	total := 0.0
	for _, w := range weights {
		total += w
	}
	n := len(weights)
	s.objects = make([]model.Object, n)
	// First pass: proportional allocation with clamping.
	var allocated cost.Bytes
	for i, w := range weights {
		size := cost.Bytes(float64(s.cfg.TotalSize) * w / total)
		if size < s.cfg.MinObjectSize {
			size = s.cfg.MinObjectSize
		}
		if size > s.cfg.MaxObjectSize {
			size = s.cfg.MaxObjectSize
		}
		s.objects[i] = model.Object{
			ID:     model.ObjectID(i + 1),
			Size:   size,
			Trixel: s.partition.ObjectTrixelID(i),
		}
		allocated += size
	}
	// Second pass: rescale unclamped objects so the total approaches
	// the configured TotalSize.
	if allocated != s.cfg.TotalSize {
		scale := float64(s.cfg.TotalSize) / float64(allocated)
		for i := range s.objects {
			scaled := cost.Bytes(float64(s.objects[i].Size) * scale)
			if scaled < s.cfg.MinObjectSize {
				scaled = s.cfg.MinObjectSize
			}
			if scaled > s.cfg.MaxObjectSize {
				scaled = s.cfg.MaxObjectSize
			}
			s.objects[i].Size = scaled
		}
	}
}

func (s *Survey) estimateMaxDensity() float64 {
	maxD := s.sky.background
	for _, b := range s.sky.blobs {
		if d := s.sky.Density(b.Center); d > maxD {
			maxD = d
		}
	}
	return maxD * 1.1
}

// Config returns the survey's configuration.
func (s *Survey) Config() Config { return s.cfg }

// Sky returns the density model.
func (s *Survey) Sky() *Sky { return s.sky }

// Objects returns the data objects (base partition plus any born
// objects), indexed by ObjectID-1.
func (s *Survey) Objects() []model.Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]model.Object, 0, len(s.objects)+len(s.born))
	out = append(out, s.objects...)
	for _, b := range s.born {
		out = append(out, b.obj)
	}
	return out
}

// Object returns the object with the given ID.
func (s *Survey) Object(id model.ObjectID) (model.Object, error) {
	idx := int(id) - 1
	if idx >= 0 && idx < len(s.objects) {
		return s.objects[idx], nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if bidx := idx - len(s.objects); bidx >= 0 && bidx < len(s.born) {
		return s.born[bidx].obj, nil
	}
	return model.Object{}, fmt.Errorf("catalog: unknown object %d", id)
}

// NumObjects returns the number of data objects, born included.
func (s *Survey) NumObjects() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects) + len(s.born)
}

// NextID returns the ID the next born object must carry: IDs are dense
// and sequential, continuing the base partition's 1..N.
func (s *Survey) NextID() model.ObjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return model.ObjectID(len(s.objects) + len(s.born) + 1)
}

// TotalSize returns the summed object size, born included.
func (s *Survey) TotalSize() cost.Bytes {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total cost.Bytes
	for _, o := range s.objects {
		total += o.Size
	}
	for _, b := range s.born {
		total += b.obj.Size
	}
	return total
}

// AddObject ingests one newly published object. The birth's ID must be
// exactly NextID (dense sequential growth; a node that hears of births
// out of order sequences them through RegionResolver.Grow) and its
// size positive. The object attaches to the partition cell containing
// its position, so CoverCap and the HTM ownership cuts place it next
// to its spatial neighbors.
func (s *Survey) AddObject(b model.Birth) error {
	if b.Object.Size <= 0 {
		return fmt.Errorf("catalog: born object %d has non-positive size", b.Object.ID)
	}
	pos := geom.FromRADec(b.RA, b.Dec)
	cell := s.partition.ObjectFor(pos)
	s.mu.Lock()
	defer s.mu.Unlock()
	want := model.ObjectID(len(s.objects) + len(s.born) + 1)
	if b.Object.ID != want {
		return fmt.Errorf("catalog: born object ID %d out of sequence (next is %d)", b.Object.ID, want)
	}
	obj := b.Object
	if obj.Trixel == 0 {
		// Inherit the containing cell's trixel so spatial sorts place
		// the newborn beside its neighbors.
		obj.Trixel = s.partition.ObjectTrixelID(cell)
	}
	if s.bornByCell == nil {
		s.bornByCell = make(map[int][]int)
	}
	s.bornByCell[cell] = append(s.bornByCell[cell], len(s.born))
	s.born = append(s.born, bornObject{obj: obj, pos: pos, cell: cell, t: b.Time})
	return nil
}

// AddObjects ingests births in publication order, the one in-order
// adoption every holder of a survey shares: a birth whose ID the survey
// already holds is skipped, so publishing twice is harmless, and any
// other must carry NextID (AddObject). It returns the births it
// ingested as stored, each with the trixel it inherits from its cell,
// and stops at the first it cannot ingest.
func (s *Survey) AddObjects(births []model.Birth) ([]model.Birth, error) {
	var added []model.Birth
	for _, b := range births {
		if err := s.AddObject(b); err != nil {
			if b.Object.ID >= 1 && b.Object.ID < s.NextID() {
				continue // held already, perhaps added concurrently
			}
			return added, err
		}
		b.Object, _ = s.Object(b.Object.ID)
		added = append(added, b)
	}
	return added, nil
}

// GrowObjects publishes n new objects at density-sampled sky positions
// (newly released survey data lands where the sky is busy, which is
// where access concentrates), applies them to this survey, and returns
// the births for shipping to other parties. Sizes are lognormal around
// a quarter of the mean base-object size, clamped to the configured
// range — new partitions start small and cacheable. Deterministic for
// a given rng state.
func (s *Survey) GrowObjects(rng *rand.Rand, n int, at time.Duration) ([]model.Birth, error) {
	births := make([]model.Birth, 0, n)
	meanBase := float64(s.cfg.TotalSize) / float64(max(s.cfg.NumObjects, 1)) / 4
	for i := 0; i < n; i++ {
		pos := s.SamplePosition(rng)
		ra, dec := pos.RADec()
		const sigma = 1.0
		mu := math.Log(math.Max(meanBase, float64(s.cfg.MinObjectSize))) - sigma*sigma/2
		size := cost.Bytes(math.Exp(mu + sigma*rng.NormFloat64()))
		if size < s.cfg.MinObjectSize {
			size = s.cfg.MinObjectSize
		}
		if size > s.cfg.MaxObjectSize {
			size = s.cfg.MaxObjectSize
		}
		added, err := s.AddObjects([]model.Birth{{
			Object: model.Object{ID: s.NextID(), Size: size},
			RA:     ra,
			Dec:    dec,
			Time:   at,
		}})
		births = append(births, added...)
		if err != nil {
			return births, err
		}
	}
	return births, nil
}

// ObjectAt returns the ID of the object owning a sky position.
func (s *Survey) ObjectAt(v geom.Vec3) model.ObjectID {
	return model.ObjectID(s.partition.ObjectFor(v) + 1)
}

// CoverCap returns the IDs of objects whose partitions may intersect
// the cap — the query→object mapping B(q). Born objects are included
// through the cell they attach to.
func (s *Survey) CoverCap(c geom.Cap) []model.ObjectID {
	idxs := s.partition.Cover(c)
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]model.ObjectID, 0, len(idxs))
	for _, idx := range idxs {
		out = append(out, model.ObjectID(idx+1))
		for _, bidx := range s.bornByCell[idx] {
			out = append(out, s.born[bidx].obj.ID)
		}
	}
	return out
}

// BornObjects returns the objects ingested after construction, in
// publication order, as shippable births.
func (s *Survey) BornObjects() []model.Birth {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]model.Birth, len(s.born))
	for i, b := range s.born {
		ra, dec := b.pos.RADec()
		out[i] = model.Birth{Object: b.obj, RA: ra, Dec: dec, Time: b.t}
	}
	return out
}

// Density returns the relative row density at a sky position.
func (s *Survey) Density(v geom.Vec3) float64 { return s.sky.Density(v) }

// SamplePosition draws a sky position distributed proportionally to
// density, by rejection sampling.
func (s *Survey) SamplePosition(rng *rand.Rand) geom.Vec3 {
	for {
		v := randomUnit(rng)
		if rng.Float64()*s.maxDens <= s.sky.Density(v) {
			return v
		}
	}
}

// Row is one star record of the synthetic PhotoObj sample, used by the
// end-to-end demos and the mini SQL executor. Magnitudes follow the
// SDSS u,g,r,i,z bands.
type Row struct {
	ObjID  int64          `json:"objID"`
	Object model.ObjectID `json:"object"`
	RA     float64        `json:"ra"`
	Dec    float64        `json:"dec"`
	U      float64        `json:"u"`
	G      float64        `json:"g"`
	R      float64        `json:"r"`
	I      float64        `json:"i"`
	Z      float64        `json:"z"`
}

// SampleRows materializes n catalog rows with positions following the
// density model. The sample is deterministic for a given seed.
func (s *Survey) SampleRows(n int, seed int64) []Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	for i := range rows {
		v := s.SamplePosition(rng)
		ra, dec := v.RADec()
		r := 14 + rng.Float64()*8 // r-band magnitude 14..22
		rows[i] = Row{
			ObjID:  int64(i + 1),
			Object: s.ObjectAt(v),
			RA:     ra,
			Dec:    dec,
			U:      r + 1.2 + rng.NormFloat64()*0.3,
			G:      r + 0.5 + rng.NormFloat64()*0.2,
			R:      r,
			I:      r - 0.3 + rng.NormFloat64()*0.2,
			Z:      r - 0.5 + rng.NormFloat64()*0.3,
		}
	}
	return rows
}

// RowIndex is a row sample grouped by object at construction, so the
// demo rows of a result cost the objects the query names, not a scan of
// the whole sample.
type RowIndex struct {
	rows     []Row
	byObject map[model.ObjectID][]int32 // ascending positions in rows
}

// NewRowIndex indexes rows by object; the sample's order is kept.
func NewRowIndex(rows []Row) *RowIndex {
	x := &RowIndex{rows: rows, byObject: make(map[model.ObjectID][]int32)}
	for i, row := range rows {
		x.byObject[row.Object] = append(x.byObject[row.Object], int32(i))
	}
	return x
}

// Sample returns the first n rows, in sample order, among the rows of
// objs — exactly what a scan of the sample keeping rows whose object is
// in objs would return. Duplicate IDs count once; IDs with no sampled
// rows (unknown, or born after the sample was drawn) add nothing. Nil
// when no row matches.
func (x *RowIndex) Sample(objs []model.ObjectID, n int) []Row {
	if n <= 0 {
		return nil
	}
	// best holds the n smallest matching positions seen so far, sorted.
	// Each object's positions ascend, so its walk stops at the first
	// one that cannot make the cut.
	var best []int32
	for _, id := range objs {
		for _, pos := range x.byObject[id] {
			if len(best) == n && pos >= best[n-1] {
				break
			}
			i, dup := slices.BinarySearch(best, pos)
			if dup {
				continue // the same ID named twice
			}
			if best == nil {
				best = make([]int32, 0, n)
			}
			if len(best) == n {
				best = best[:n-1]
			}
			best = slices.Insert(best, i, pos)
		}
	}
	if len(best) == 0 {
		return nil
	}
	out := make([]Row, len(best))
	for i, pos := range best {
		out[i] = x.rows[pos]
	}
	return out
}

func randomUnit(rng *rand.Rand) geom.Vec3 {
	return geom.Vec3{
		X: rng.NormFloat64(),
		Y: rng.NormFloat64(),
		Z: rng.NormFloat64(),
	}.Normalize()
}
