// Package workload generates the interleaved query–update event
// sequences the experiments replay. It reproduces the statistical
// properties of the SDSS trace the paper used (Section 6.1):
//
//   - queries arrive in evolving *campaigns* — clusters of activity
//     around a sky region that drift and hand over to new regions over
//     time, so "entirely different sets of data objects are queried in a
//     short time period" (Figure 7a);
//   - there is no dominant query template: a mix of cone searches of
//     varying radius, wide-area scans, and occasional all-sky queries;
//   - result sizes are heavy-tailed (lognormal), and the trace's early
//     queries have small results, which is what produces the paper's
//     long warm-up period;
//   - updates follow telescope scans along great circles, clustered on
//     sky stripes ("update hotspots") that are distinct from the query
//     hotspots, with update sizes proportional to the density of the
//     object they hit;
//   - queries carry a mixed tolerance for staleness: many demand the
//     latest data (t = 0), some tolerate bounded staleness, some accept
//     any cached version.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
)

// Config holds the values a caller sets. Everything else about the
// trace is one of the constants below.
type Config struct {
	Seed int64

	// NumQueries and NumUpdates set the event mix (paper default:
	// 250,000 each).
	NumQueries int
	NumUpdates int

	// BackgroundQueryFrac is the fraction of queries aimed anywhere on
	// the sky, outside any campaign: the serendipitous long tail that
	// "does not follow any clear patterns" (Section 6.1). These queries
	// are essentially uncacheable and bound every policy's savings.
	BackgroundQueryFrac float64

	// GrowthObjects is how many new data objects are published across
	// the trace (the paper's rapidly-growing repository); births are
	// spread evenly through the event sequence, so the growth rate is
	// GrowthObjects per trace. Zero keeps the universe fixed at
	// startup, reproducing the pre-growth traces exactly.
	GrowthObjects int
	// BirthBias is the probability a query issued after the first
	// birth targets a recently published object instead of its
	// campaign region — the access concentration on newly released
	// data that in-network-cache studies of real scientific
	// repositories observe.
	BirthBias float64
}

// The base trace's fixed shape, calibrated to the paper's SDSS trace.
const (
	// numCampaigns is the number of query campaigns across the trace;
	// each campaign concentrates queries around one query-hot region
	// for a contiguous span of events.
	numCampaigns = 10
	// campaignSpreadDeg is the angular scatter of query centers around
	// the campaign center.
	campaignSpreadDeg = 2.5
	// queryRadiusMinDeg and queryRadiusMaxDeg bound cone-search radii.
	queryRadiusMinDeg = 0.3
	queryRadiusMaxDeg = 2
	// wideScanFrac is the fraction of queries that scan a wide region
	// (tens of degrees), touching many objects.
	wideScanFrac = 0.02

	// meanResultSize is the mean query result size ν(q); the paper's
	// trace carries ~300 GB over 250k queries (~1.2 MB mean).
	meanResultSize = 3 * cost.MB / 2
	// resultSigma is the lognormal shape parameter of result sizes.
	resultSigma = 2.0

	// zeroTolFrac is the fraction of queries with no tolerance for
	// staleness; anyTolFrac accept arbitrary staleness; the remainder
	// draw a tolerance uniformly in (0, toleranceMaxFrac of the trace's
	// virtual duration]. Expressing the bound as a fraction keeps the
	// staleness semantics identical when a trace is scaled down.
	zeroTolFrac      = 0.5
	anyTolFrac       = 0.2
	toleranceMaxFrac = 0.2

	// scanStepDeg is the angular step between consecutive scan updates.
	scanStepDeg = 0.8
	// hotspotBias is the probability an update is redrawn near an
	// update-hot blob instead of the current scan position, clustering
	// updates on update hotspots.
	hotspotBias = 0.45
	// queryBlobUpdateFrac is the probability an update lands near a
	// query-hot blob: telescopes revisit scientifically interesting
	// regions, so the most-queried sky keeps growing too. Because update
	// sizes follow density, a modest count fraction here is a large byte
	// fraction — the pressure that separates Delta's on-demand update
	// shipping from the eager shipping of Replica/Benefit/SOptimal.
	queryBlobUpdateFrac = 0.05
	// meanUpdateSize is the mean update payload ν(u), scaled by local
	// density (paper: update size proportional to object density). The
	// scenarios use it too.
	meanUpdateSize = 232 * cost.KB

	// warmupFrac is the fraction of the query sequence whose result
	// sizes ramp up from warmupScale× to 1× of the mean, reproducing the
	// paper's warm-up behaviour ("queries with small query cost occur
	// earlier in trace").
	warmupFrac  = 0.4
	warmupScale = 0.25

	// eventInterval is the virtual time between consecutive events;
	// scenarios with bursty or cyclic arrivals modulate it.
	eventInterval = 200 * time.Millisecond
)

// DefaultConfig returns the paper-calibrated workload: 250k queries and
// 250k updates with ~300 GB of query traffic and ~300 GB of update
// traffic at the default event counts.
func DefaultConfig() Config {
	return Config{
		Seed:                1,
		NumQueries:          250_000,
		NumUpdates:          250_000,
		BackgroundQueryFrac: 0.25,
	}
}

// Generator produces traces against a survey.
type Generator struct {
	survey *catalog.Survey
	cfg    Config
}

// Validate checks the event and birth counts and the range of both
// shares.
func (cfg Config) Validate() error {
	if cfg.NumQueries < 0 || cfg.NumUpdates < 0 || cfg.NumQueries+cfg.NumUpdates == 0 {
		return fmt.Errorf("workload: invalid event counts q=%d u=%d", cfg.NumQueries, cfg.NumUpdates)
	}
	if cfg.BackgroundQueryFrac < 0 || cfg.BackgroundQueryFrac > 1 {
		return fmt.Errorf("workload: background query fraction out of range")
	}
	if cfg.GrowthObjects < 0 {
		return fmt.Errorf("workload: growth objects must be non-negative")
	}
	if cfg.BirthBias < 0 || cfg.BirthBias > 1 {
		return fmt.Errorf("workload: birth bias out of range")
	}
	return nil
}

// NewGenerator validates the configuration and returns a generator.
func NewGenerator(survey *catalog.Survey, cfg Config) (*Generator, error) {
	if survey == nil {
		return nil, fmt.Errorf("workload: nil survey")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{survey: survey, cfg: cfg}, nil
}

// campaign is one query-activity cluster.
type campaign struct {
	center geom.Vec3
}

// scanState walks a great circle in fixed angular steps; when a circle
// completes, a new one is chosen through an update-hot blob.
type scanState struct {
	circle geom.GreatCircle
	theta  float64
}

// Generate produces the full event sequence. The output is
// deterministic for a fixed survey and config. When GrowthObjects is
// set the survey itself grows as a side effect: births are applied to
// it as they are generated, so the trace's later queries can cover the
// newborns (a live deployment replays the same births into its
// repository, whose survey grows identically).
func (g *Generator) Generate() ([]model.Event, error) {
	cfg := g.cfg
	// Independent streams keep the query sequence identical when only
	// the update count changes — the Figure 8a experiment holds the
	// 250k queries fixed while sweeping updates.
	planRng := rand.New(rand.NewSource(cfg.Seed))
	qRng := rand.New(rand.NewSource(cfg.Seed ^ 0x51ec5))
	uRng := rand.New(rand.NewSource(cfg.Seed ^ 0x0bda7e))
	bRng := rand.New(rand.NewSource(cfg.Seed ^ 0x6b17f5))

	queryBlobs := g.survey.Sky().Blobs(catalog.QueryHot)
	updateBlobs := g.survey.Sky().Blobs(catalog.UpdateHot)
	if len(queryBlobs) == 0 || len(updateBlobs) == 0 {
		return nil, fmt.Errorf("workload: survey sky lacks query/update blobs")
	}
	// Query activity concentrates on a handful of regions (the paper's
	// Figure 7a shows roughly half a dozen hotspot object-IDs); use at
	// most three query blobs for campaign anchors.
	if len(queryBlobs) > 3 {
		queryBlobs = queryBlobs[:3]
	}

	// Campaign plan: each campaign anchors near a query-hot blob, with
	// a drifting offset so consecutive campaigns visit different sky.
	campaigns := make([]campaign, numCampaigns)
	for i := range campaigns {
		blob := queryBlobs[planRng.Intn(len(queryBlobs))]
		// Anchor on the blob's flank: query hotspots in the paper
		// concentrate on roughly half a dozen object-IDs of mixed size.
		campaigns[i] = campaign{center: perturb(planRng, blob.Center, blob.Sigma*0.6)}
	}

	scan := g.newScan(uRng, updateBlobs)

	total := cfg.NumQueries + cfg.NumUpdates + cfg.GrowthObjects
	events := make([]model.Event, 0, total)
	var (
		qID     model.QueryID
		uID     model.UpdateID
		qIssued int
		uIssued int
		born    []model.Birth
	)
	// Mean density normalizer for update sizing.
	meanDensity := g.meanDensity(planRng)

	for seq := 0; seq < total; seq++ {
		t := time.Duration(seq) * eventInterval

		// Births spread evenly through the trace: the k-th birth lands
		// once a k-th share of the sequence has elapsed.
		if len(born) < cfg.GrowthObjects &&
			int64(seq) >= int64(len(born)+1)*int64(total)/int64(cfg.GrowthObjects+1) {
			births, err := g.survey.GrowObjects(bRng, 1, t)
			if err != nil {
				return nil, fmt.Errorf("workload: grow: %w", err)
			}
			b := births[0]
			born = append(born, b)
			events = append(events, model.Event{Seq: int64(seq), Kind: model.EventBirth, Birth: &b})
			continue
		}

		if nextIsQuery(qIssued, uIssued, cfg.NumQueries, cfg.NumUpdates) {
			qID++
			q := g.genQuery(qRng, qID, t, qIssued, campaigns, born)
			events = append(events, model.Event{Seq: int64(seq), Kind: model.EventQuery, Query: q})
			qIssued++
		} else {
			uID++
			u := g.genUpdate(uRng, uID, t, scan, updateBlobs, meanDensity)
			events = append(events, model.Event{Seq: int64(seq), Kind: model.EventUpdate, Update: u})
			uIssued++
		}
	}
	return events, nil
}

func (g *Generator) newScan(rng *rand.Rand, updateBlobs []catalog.Blob) *scanState {
	// A great circle passing through an update-hot blob center: any
	// pole perpendicular to the center works; pick one at random.
	blob := updateBlobs[rng.Intn(len(updateBlobs))]
	seed := randomUnit(rng)
	pole := blob.Center.Cross(seed).Normalize()
	if pole.Norm() == 0 {
		pole = geom.Vec3{Z: 1}
	}
	return &scanState{circle: geom.NewGreatCircle(pole), theta: rng.Float64() * 2 * math.Pi}
}

func (g *Generator) meanDensity(rng *rand.Rand) float64 {
	sum := 0.0
	const n = 500
	for i := 0; i < n; i++ {
		sum += g.survey.Density(randomUnit(rng))
	}
	return sum / n
}

func (g *Generator) genQuery(rng *rand.Rand, id model.QueryID, t time.Duration,
	issued int, campaigns []campaign, born []model.Birth) *model.Query {

	cfg := g.cfg
	// Which campaign is active: campaigns own contiguous spans of the
	// query sequence, with a little leakage into neighbours so hand-offs
	// are gradual.
	campIdx := issued * len(campaigns) / max(cfg.NumQueries, 1)
	if campIdx >= len(campaigns) {
		campIdx = len(campaigns) - 1
	}
	if rng.Float64() < 0.15 { // revisit a random earlier region
		campIdx = rng.Intn(len(campaigns))
	}
	center := perturb(rng, campaigns[campIdx].center, radians(campaignSpreadDeg))
	fresh := false
	switch {
	case len(born) > 0 && rng.Float64() < cfg.BirthBias:
		// Access concentrates on newly released data: aim at one of the
		// most recent births, tightly enough that its object is covered.
		recent := born[max(0, len(born)-16):]
		b := recent[rng.Intn(len(recent))]
		center = perturb(rng, geom.FromRADec(b.RA, b.Dec), 0.2*math.Pi/180)
		fresh = true
	case rng.Float64() < cfg.BackgroundQueryFrac:
		// Serendipitous one-off anywhere on the sky.
		center = randomUnit(rng)
	}

	var radius float64
	switch {
	case fresh:
		radius = 0.3 + rng.Float64()*0.7 // tight cone on the newborn
	case rng.Float64() < wideScanFrac:
		radius = 15 + rng.Float64()*45 // wide-area scan
	default:
		radius = queryRadiusMinDeg +
			rng.Float64()*(queryRadiusMaxDeg-queryRadiusMinDeg)
	}
	objects := g.survey.CoverCap(geom.NewCap(center, radius))
	if len(objects) == 0 {
		objects = []model.ObjectID{g.survey.ObjectAt(center)}
	}

	// Result size: lognormal around meanResultSize (queries are
	// selective, so result size does not track sky density), shaped by
	// the warm-up ramp.
	mean := float64(meanResultSize)
	sigma := resultSigma
	// For a lognormal with E[X]=m: mu = ln m - sigma^2/2.
	mu := math.Log(mean) - sigma*sigma/2
	size := math.Exp(mu + sigma*rng.NormFloat64())
	if warm := float64(issued) / float64(max(cfg.NumQueries, 1)); warm < warmupFrac {
		ramp := warmupScale + (1-warmupScale)*(warm/warmupFrac)
		size *= ramp
	}
	if size < 1024 {
		size = 1024
	}

	return &model.Query{
		ID:        id,
		Objects:   objects,
		Cost:      cost.Bytes(size),
		Tolerance: tolerance(rng, time.Duration(cfg.NumQueries+cfg.NumUpdates)*eventInterval),
		Time:      t,
	}
}

// tolerance draws a query's staleness tolerance: zeroTolFrac of
// queries demand the latest data, anyTolFrac accept any cached version,
// and the rest tolerate up to toleranceMaxFrac of the trace's virtual
// horizon.
func tolerance(rng *rand.Rand, horizon time.Duration) time.Duration {
	switch r := rng.Float64(); {
	case r < zeroTolFrac:
		return model.NoTolerance
	case r < zeroTolFrac+anyTolFrac:
		return model.AnyStaleness
	default:
		return time.Duration(rng.Float64() * toleranceMaxFrac * float64(horizon))
	}
}

func (g *Generator) genUpdate(rng *rand.Rand, id model.UpdateID, t time.Duration,
	scan *scanState, updateBlobs []catalog.Blob, meanDensity float64) *model.Update {

	var pos geom.Vec3
	switch r := rng.Float64(); {
	case r < hotspotBias:
		// Clustered on an update-hot stripe.
		blob := updateBlobs[rng.Intn(len(updateBlobs))]
		pos = perturb(rng, blob.Center, blob.Sigma)
	case r < hotspotBias+queryBlobUpdateFrac:
		// Revisit of a scientifically interesting (query-hot) region.
		queryBlobs := g.survey.Sky().Blobs(catalog.QueryHot)
		blob := queryBlobs[rng.Intn(len(queryBlobs))]
		pos = perturb(rng, blob.Center, blob.Sigma)
	default:
		// Systematic scan along the current great circle.
		scan.theta += radians(scanStepDeg)
		if scan.theta > 2*math.Pi {
			*scan = *g.newScan(rng, updateBlobs)
		}
		pos = scan.circle.Point(scan.theta)
	}
	obj := g.survey.ObjectAt(pos)

	// Update size proportional to object density, lognormal noise.
	density := g.survey.Density(pos)
	mean := float64(meanUpdateSize) * (density / meanDensity)
	sigma := 0.8
	mu := math.Log(math.Max(mean, 1024)) - sigma*sigma/2
	size := math.Exp(mu + sigma*rng.NormFloat64())
	if size < 512 {
		size = 512
	}

	return &model.Update{
		ID:     id,
		Object: obj,
		Cost:   cost.Bytes(size),
		Time:   t,
	}
}

func perturb(rng *rand.Rand, center geom.Vec3, sigmaRad float64) geom.Vec3 {
	off := geom.Vec3{
		X: rng.NormFloat64(),
		Y: rng.NormFloat64(),
		Z: rng.NormFloat64(),
	}.Normalize().Scale(math.Abs(rng.NormFloat64()) * sigmaRad)
	return center.Add(off).Normalize()
}

// radians converts degrees at run time. Go folds a constant expression
// such as 3*math.Pi/180 exactly, which can differ in the last bit from
// the float64 product that the golden traces pin.
func radians(deg float64) float64 { return deg * math.Pi / 180 }

func randomUnit(rng *rand.Rand) geom.Vec3 {
	return geom.Vec3{
		X: rng.NormFloat64(),
		Y: rng.NormFloat64(),
		Z: rng.NormFloat64(),
	}.Normalize()
}
