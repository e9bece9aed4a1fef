package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
)

// Scenario is a named, deterministic workload generator. Each scenario
// encodes one access pattern the in-network-cache trace studies
// measured on real scientific repositories — Zipf popularity with rank
// drift, diurnal load cycles, batch pipelines vs interactive users,
// flash crowds, growth spurts — at one calibration, and reduces it to
// the same model.Event stream the base Generator produces, so the
// simulator, the cluster soaks, and the live delta-client driver replay
// any scenario unchanged.
type Scenario struct {
	name, description string
	// queries and updates are the default event mix, births the number
	// of objects the scenario publishes, and anchors the number of
	// query anchors it draws on the flanks of query-hot blobs.
	queries, updates int
	births           int
	anchors          int
	// emit writes the scenario's events once Events has set up the
	// emitter and drawn the anchors.
	emit func(e *emitter, anchors []geom.Vec3) error
}

// Name is the stable registry key (delta-client -scenario <name>).
func (s Scenario) Name() string { return s.name }

// Description is a one-line summary for listings.
func (s Scenario) Description() string { return s.description }

// Events generates the scenario's event stream against the survey. The
// stream is deterministic for a fixed survey and options. A scenario
// that grows the universe applies its births to the survey as a side
// effect, exactly like Generator.Generate.
func (s Scenario) Events(survey *catalog.Survey, opts Options) ([]model.Event, error) {
	opts = opts.withDefaults(s.queries, s.updates)
	if err := opts.validate(); err != nil {
		return nil, err
	}
	e, err := newEmitter(survey, opts, opts.Queries+opts.Updates+s.births)
	if err != nil {
		return nil, err
	}
	anchors, err := queryAnchors(e.planRng, survey, s.anchors)
	if err != nil {
		return nil, err
	}
	if err := s.emit(e, anchors); err != nil {
		return nil, err
	}
	return e.events, nil
}

// Options are the scenario-independent settings of a generated trace.
// Zero values select per-scenario defaults.
type Options struct {
	// Seed drives every random choice; equal seeds give identical
	// traces. Zero means seed 1.
	Seed int64
	// Queries and Updates set the event mix. Zero means the scenario
	// default; negative is invalid.
	Queries int
	Updates int
}

func (o Options) withDefaults(defQueries, defUpdates int) Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Queries == 0 {
		o.Queries = defQueries
	}
	if o.Updates == 0 {
		o.Updates = defUpdates
	}
	return o
}

func (o Options) validate() error {
	if o.Queries < 0 || o.Updates < 0 {
		return fmt.Errorf("workload: negative event counts q=%d u=%d", o.Queries, o.Updates)
	}
	if o.Queries+o.Updates == 0 {
		return fmt.Errorf("workload: scenario needs at least one event")
	}
	return nil
}

// scenarios is the registry, sorted by name.
var scenarios = []Scenario{
	{
		name:        "batch-interactive",
		description: "pipeline bursts of updates+wide scans over an interactive cone-search trickle",
		queries:     5000,
		updates:     3000,
		anchors:     6,
		emit:        emitBatchInteractive,
	},
	{
		name:        "diurnal",
		description: "day/night cycles: interactive queries at the peak, pipeline updates in the trough",
		queries:     6000,
		updates:     3000,
		anchors:     8,
		emit:        emitDiurnal,
	},
	{
		name:        "flash-crowd",
		description: "steady baseline until one sky region goes viral mid-trace, then decays",
		queries:     8000,
		updates:     2000,
		anchors:     8,
		emit:        emitFlashCrowd,
	},
	{
		name:        "growth-spurt",
		description: "birth storms concentrated in time and sky region, with access piling onto newborns",
		queries:     5000,
		updates:     2000,
		births:      growthBirths,
		anchors:     8,
		emit:        emitGrowthSpurt,
	},
	{
		name:        "zipf-drift",
		description: "Zipf-skewed anchor popularity whose rank→region mapping rotates each drift phase",
		queries:     6000,
		updates:     2000,
		anchors:     zipfAnchors,
		emit:        emitZipfDrift,
	},
}

// Scenarios returns every registered scenario, sorted by name.
func Scenarios() []Scenario { return slices.Clone(scenarios) }

// Lookup resolves a scenario by registry name.
func Lookup(name string) (Scenario, error) {
	var known []string
	for _, s := range scenarios {
		if s.name == name {
			return s, nil
		}
		known = append(known, s.name)
	}
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q (have %s)", name, strings.Join(known, ", "))
}

// emitter is the shared event-construction machinery: it owns the
// random streams, the virtual clock, the ID counters, and the
// query/update/birth builders, so each scenario only has to decide
// *where* and *when*.
type emitter struct {
	survey *catalog.Survey
	opts   Options
	// Independent streams, seeded as Generator.Generate seeds its own.
	planRng, qRng, uRng, bRng *rand.Rand

	events      []model.Event
	now         time.Duration
	qID         model.QueryID
	uID         model.UpdateID
	meanDensity float64
	horizon     time.Duration
	born        []model.Birth
}

func newEmitter(survey *catalog.Survey, opts Options, totalEvents int) (*emitter, error) {
	if survey == nil {
		return nil, fmt.Errorf("workload: nil survey")
	}
	e := &emitter{
		survey:  survey,
		opts:    opts,
		planRng: rand.New(rand.NewSource(opts.Seed)),
		qRng:    rand.New(rand.NewSource(opts.Seed ^ 0x51ec5)),
		uRng:    rand.New(rand.NewSource(opts.Seed ^ 0x0bda7e)),
		bRng:    rand.New(rand.NewSource(opts.Seed ^ 0x6b17f5)),
		events:  make([]model.Event, 0, totalEvents),
		horizon: time.Duration(totalEvents) * eventInterval,
	}
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x3a7d9))
	sum := 0.0
	const n = 200
	for i := 0; i < n; i++ {
		sum += survey.Density(randomUnit(rng))
	}
	e.meanDensity = sum / n
	if e.meanDensity <= 0 {
		e.meanDensity = 1
	}
	return e, nil
}

// tick advances the virtual clock by dt, floored so time stays
// strictly increasing.
func (e *emitter) tick(dt time.Duration) {
	if dt < time.Microsecond {
		dt = time.Microsecond
	}
	e.now += dt
}

// coneQuery emits a cone search around center.
func (e *emitter) coneQuery(center geom.Vec3, radiusDeg float64, meanSize cost.Bytes) {
	objects := e.survey.CoverCap(geom.NewCap(center, radiusDeg))
	if len(objects) == 0 {
		objects = []model.ObjectID{e.survey.ObjectAt(center)}
	}
	e.qID++
	e.events = append(e.events, model.Event{
		Seq:  int64(len(e.events)),
		Kind: model.EventQuery,
		Query: &model.Query{
			ID:        e.qID,
			Objects:   objects,
			Cost:      lognormalBytes(e.qRng, float64(meanSize), 1.6, 1024),
			Tolerance: tolerance(e.qRng, e.horizon),
			Time:      e.now,
		},
	})
}

// update emits an update near an update-hot blob, sized by local
// density.
func (e *emitter) update() error {
	blobs := e.survey.Sky().Blobs(catalog.UpdateHot)
	if len(blobs) == 0 {
		return fmt.Errorf("workload: survey sky lacks update blobs")
	}
	b := blobs[e.uRng.Intn(len(blobs))]
	pos := perturb(e.uRng, b.Center, b.Sigma)
	density := e.survey.Density(pos)
	mean := float64(meanUpdateSize) * (density / e.meanDensity)
	e.uID++
	e.events = append(e.events, model.Event{
		Seq:  int64(len(e.events)),
		Kind: model.EventUpdate,
		Update: &model.Update{
			ID:     e.uID,
			Object: e.survey.ObjectAt(pos),
			Cost:   lognormalBytes(e.uRng, mean, 0.8, 512),
			Time:   e.now,
		},
	})
	return nil
}

// birth publishes one new object at pos and emits its event.
func (e *emitter) birth(pos geom.Vec3, meanSize cost.Bytes) error {
	ra, dec := pos.RADec()
	b := model.Birth{
		Object: model.Object{
			ID:   e.survey.NextID(),
			Size: lognormalBytes(e.bRng, float64(meanSize), 1.0, 1024),
		},
		RA:   ra,
		Dec:  dec,
		Time: e.now,
	}
	// Ship the stored copy, which carries the inherited trixel.
	added, err := e.survey.AddObjects([]model.Birth{b})
	if err != nil {
		return fmt.Errorf("workload: birth: %w", err)
	}
	b = added[0]
	e.born = append(e.born, b)
	e.events = append(e.events, model.Event{
		Seq:   int64(len(e.events)),
		Kind:  model.EventBirth,
		Birth: &b,
	})
	return nil
}

// interleave emits the options' queries and updates, one base interval
// apart, in the proportional interleave: query(i) emits the i-th query,
// and each update slot emits an update.
func (e *emitter) interleave(query func(i int)) error {
	qIssued, uIssued := 0, 0
	for qIssued+uIssued < e.opts.Queries+e.opts.Updates {
		e.tick(eventInterval)
		if nextIsQuery(qIssued, uIssued, e.opts.Queries, e.opts.Updates) {
			query(qIssued)
			qIssued++
			continue
		}
		if err := e.update(); err != nil {
			return err
		}
		uIssued++
	}
	return nil
}

// nextIsQuery is the deterministic proportional (Bresenham) interleave
// of queries and updates: after q queries and u updates, it emits the
// stream furthest behind its quota, so both streams stay evenly mixed
// regardless of the ratio.
func nextIsQuery(q, u, queries, updates int) bool {
	return u >= updates || (q < queries && int64(q)*int64(queries+updates) <= int64(q+u)*int64(queries))
}

func lognormalBytes(rng *rand.Rand, mean, sigma float64, floor cost.Bytes) cost.Bytes {
	mu := math.Log(math.Max(mean, float64(floor))) - sigma*sigma/2
	size := math.Exp(mu + sigma*rng.NormFloat64())
	if size < float64(floor) {
		return floor
	}
	return cost.Bytes(size)
}

// queryAnchors draws n anchor points on the flanks of query-hot blobs.
func queryAnchors(rng *rand.Rand, survey *catalog.Survey, n int) ([]geom.Vec3, error) {
	blobs := survey.Sky().Blobs(catalog.QueryHot)
	if len(blobs) == 0 {
		return nil, fmt.Errorf("workload: survey sky lacks query blobs")
	}
	out := make([]geom.Vec3, n)
	for i := range out {
		b := blobs[rng.Intn(len(blobs))]
		out[i] = perturb(rng, b.Center, b.Sigma*0.6)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// zipf-drift reproduces the headline finding of the access-trend
// studies: object popularity is Zipf-distributed, but the *identity*
// of the popular objects drifts over time. Queries draw an anchor rank
// from a Zipf distribution; the rank→anchor mapping rotates once per
// drift phase, so each phase has the same popularity curve over a
// shifted set of sky regions.

const (
	// zipfSkew is the Zipf s parameter.
	zipfSkew = 1.25
	// zipfAnchors is the number of ranked sky anchors.
	zipfAnchors = 16
	// zipfPhases is how many times the rank→anchor mapping rotates
	// across the trace.
	zipfPhases = 4
	// zipfRadiusDeg is the cone radius of anchor queries.
	zipfRadiusDeg = 0.7
)

func emitZipfDrift(e *emitter, anchors []geom.Vec3) error {
	zipf := rand.NewZipf(e.qRng, zipfSkew, 1, uint64(len(anchors)-1))
	return e.interleave(func(i int) {
		// zipf-drift sends no query to the open sky, which is what makes
		// rank-frequency measurable; each query still draws the
		// background coin the other shapes flip, and the golden traces
		// pin that draw.
		_ = e.qRng.Float64()
		phase := i * zipfPhases / max(e.opts.Queries, 1)
		rank := int(zipf.Uint64())
		anchor := anchors[(rank+phase)%len(anchors)]
		// A tight wobble keeps each anchor's covered object set
		// stable, so rank-frequency is measurable downstream.
		e.coneQuery(perturb(e.qRng, anchor, 0.05*math.Pi/180), zipfRadiusDeg, cost.MB)
	})
}

// ---------------------------------------------------------------------
// diurnal reproduces the day/night load cycle: interactive queries
// cluster in the working-hours peak, pipeline updates concentrate in
// the quiet trough, and arrival intensity swings by diurnalPeak between
// them, modulating inter-event gaps sinusoidally.

const (
	// diurnalPeriod is the length of one virtual day in events.
	diurnalPeriod = 2000
	// diurnalPeak is the day-peak arrival intensity over the night
	// trough.
	diurnalPeak = 4
	// diurnalNightShare is the fraction of updates forced into the
	// night half of each cycle.
	diurnalNightShare = 0.8
	// diurnalRadiusDeg is the cone radius of interactive queries.
	diurnalRadiusDeg = 1.0
)

func emitDiurnal(e *emitter, anchors []geom.Vec3) error {
	total := e.opts.Queries + e.opts.Updates
	// dayness(slot) ∈ [0,1]: 1 at the peak of the cycle, 0 in the
	// trough.
	dayness := func(slot int) float64 {
		phase := 2 * math.Pi * float64(slot%diurnalPeriod) / float64(diurnalPeriod)
		return (1 + math.Sin(phase)) / 2
	}
	// Assign kinds: updates claim the night-most slots first (their
	// diurnalNightShare), the rest follow the plain interleave over
	// what remains. Sorting slot indices by dayness is deterministic.
	kind := make([]model.EventKind, total)
	order := make([]int, total)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return dayness(order[a]) < dayness(order[b]) })
	nightUpdates := int(float64(e.opts.Updates) * diurnalNightShare)
	for _, slot := range order[:min(nightUpdates, total)] {
		kind[slot] = model.EventUpdate
	}
	// Distribute the remaining events over unclaimed slots.
	restQ, restU := e.opts.Queries, e.opts.Updates-nightUpdates
	q, u := 0, 0
	for slot := 0; slot < total; slot++ {
		if kind[slot] != 0 {
			continue
		}
		if nextIsQuery(q, u, restQ, restU) {
			kind[slot] = model.EventQuery
			q++
		} else {
			kind[slot] = model.EventUpdate
			u++
		}
	}

	for slot := 0; slot < total; slot++ {
		// High intensity compresses inter-event gaps: a peak of 4 makes
		// peak arrivals 4× denser than trough arrivals.
		intensity := 1 + (diurnalPeak-1)*dayness(slot)
		e.tick(time.Duration(float64(eventInterval) / intensity))
		if kind[slot] == model.EventQuery {
			anchor := anchors[(slot/diurnalPeriod)%len(anchors)]
			if e.qRng.Float64() < 0.3 {
				anchor = anchors[e.qRng.Intn(len(anchors))]
			}
			e.coneQuery(perturb(e.qRng, anchor, 0.5*math.Pi/180), diurnalRadiusDeg, cost.MB)
		} else if err := e.update(); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// batch-interactive alternates batch-pipeline bursts with an
// interactive trickle: every batchPeriod events a pipeline wakes up and
// fires batchLen events back to back (updates plus wide scans) at
// batchSpeedup× the base rate, then individual users trickle cone
// searches at the base rate.

const (
	// batchPeriod is the distance between batch-burst starts, in
	// events.
	batchPeriod = 400
	// batchLen is how many events each burst carries, leaving the rest
	// of the period to the interactive trickle.
	batchLen = 80
	// batchSpeedup is how much faster events arrive inside a burst.
	batchSpeedup = 20
	// batchWideFrac is the fraction of burst queries that are
	// wide-area scans.
	batchWideFrac = 0.3
)

func emitBatchInteractive(e *emitter, anchors []geom.Vec3) error {
	total := e.opts.Queries + e.opts.Updates
	qLeft, uLeft := e.opts.Queries, e.opts.Updates
	for slot := 0; slot < total; slot++ {
		inBatch := slot%batchPeriod < batchLen
		if inBatch {
			e.tick(time.Duration(float64(eventInterval) / batchSpeedup))
		} else {
			e.tick(eventInterval)
		}
		// Bursts prefer updates; the trickle prefers queries. Quotas
		// stay exact: when a stream runs dry the other fills in.
		wantUpdate := inBatch && e.uRng.Float64() < 0.7
		if wantUpdate && uLeft == 0 {
			wantUpdate = false
		}
		if !wantUpdate && qLeft == 0 {
			wantUpdate = true
		}
		if wantUpdate {
			if err := e.update(); err != nil {
				return err
			}
			uLeft--
			continue
		}
		if inBatch && e.qRng.Float64() < batchWideFrac {
			// Pipeline re-derivation pass: wide scan over its stripe.
			e.coneQuery(perturb(e.qRng, anchors[(slot/batchPeriod)%len(anchors)], 0.5*math.Pi/180),
				10+e.qRng.Float64()*20, 4*cost.MB)
		} else {
			e.coneQuery(perturb(e.qRng, anchors[e.qRng.Intn(len(anchors))], 1.5*math.Pi/180),
				0.3+e.qRng.Float64()*1.2, cost.MB)
		}
		qLeft--
	}
	return nil
}

// ---------------------------------------------------------------------
// flash-crowd runs a steady baseline mix until one sky region goes
// viral mid-trace: the share of queries aimed at that region ramps
// linearly from zero at flashStart to flashPeakShare at flashPeak, then
// decays back to zero by flashEnd. This is the pinning harness for
// autopilot elasticity: p99 on the viral region must recover without
// operator action.

const (
	// flashStart, flashPeak, and flashEnd position the ramp within the
	// trace, as fractions of the query sequence.
	flashStart = 0.3
	flashPeak  = 0.5
	flashEnd   = 0.8
	// flashPeakShare is the fraction of queries hitting the viral
	// region at the peak.
	flashPeakShare = 0.8
	// flashRadiusDeg is the viral query cone radius.
	flashRadiusDeg = 0.5
)

func emitFlashCrowd(e *emitter, anchors []geom.Vec3) error {
	viral := anchors[e.planRng.Intn(len(anchors))]
	return e.interleave(func(i int) {
		frac := float64(i) / float64(max(e.opts.Queries, 1))
		if e.qRng.Float64() < viralShare(frac) {
			// The crowd all looks at the same thing: tight cones on
			// the viral region.
			e.coneQuery(perturb(e.qRng, viral, 0.1*math.Pi/180), flashRadiusDeg, cost.MB)
			return
		}
		e.coneQuery(perturb(e.qRng, anchors[e.qRng.Intn(len(anchors))], 1.5*math.Pi/180),
			0.3+e.qRng.Float64()*1.7, cost.MB)
	})
}

// viralShare is flash-crowd's ramp profile at trace position
// frac ∈ [0,1].
func viralShare(frac float64) float64 {
	// Variables, not constants: the slopes divide by float64
	// differences, which the golden traces pin; Go would fold
	// flashEnd-flashPeak exactly instead.
	start, peak, end := flashStart, flashPeak, flashEnd
	switch {
	case frac <= start || frac >= end:
		return 0
	case frac < peak:
		return flashPeakShare * (frac - start) / (peak - start)
	default:
		return flashPeakShare * (end - frac) / (end - peak)
	}
}

// ---------------------------------------------------------------------
// growth-spurt concentrates repository growth in time and sky: instead
// of the base generator's evenly-spread births, data releases land as
// storms — runs of consecutive births clustered around one sky region —
// and the query stream piles onto the newborns, reproducing the access
// concentration on newly released data.

const (
	// growthBirths is the total number of objects published, in
	// growthStorms storms of equal size.
	growthBirths = 120
	growthStorms = 4
	// growthStormRadiusDeg is the sky scatter of one storm's births
	// around its region.
	growthStormRadiusDeg = 3
	// growthNewbornBias is the probability a query issued after the
	// first storm targets a recent newborn.
	growthNewbornBias = 0.5
	// growthBirthSize is the mean size of a published object.
	growthBirthSize = 4 * cost.MB
)

func emitGrowthSpurt(e *emitter, anchors []geom.Vec3) error {
	total := e.opts.Queries + e.opts.Updates + growthBirths
	// Storm plan: start slots spread through the middle of the trace,
	// each storm a run of consecutive birth slots near one region.
	perStorm := growthBirths / growthStorms
	if spacing := total / (growthStorms + 1); perStorm >= spacing {
		// Overlapping storm windows would silently swallow births.
		return fmt.Errorf("workload: %d births in %d storms do not fit a %d-event trace",
			growthBirths, growthStorms, total)
	}
	type storm struct {
		start  int
		center geom.Vec3
	}
	storms := make([]storm, growthStorms)
	for i := range storms {
		storms[i] = storm{
			start:  (i + 1) * total / (growthStorms + 1),
			center: perturb(e.planRng, anchors[e.planRng.Intn(len(anchors))], 1*math.Pi/180),
		}
	}
	stormAt := func(slot int) (storm, bool) {
		for _, st := range storms {
			if slot >= st.start && slot < st.start+perStorm {
				return st, true
			}
		}
		return storm{}, false
	}

	qIssued, uIssued := 0, 0
	for slot := 0; slot < total; slot++ {
		e.tick(eventInterval)
		if st, ok := stormAt(slot); ok {
			pos := perturb(e.bRng, st.center, radians(growthStormRadiusDeg))
			if err := e.birth(pos, growthBirthSize); err != nil {
				return err
			}
			continue
		}
		if !nextIsQuery(qIssued, uIssued, e.opts.Queries, e.opts.Updates) {
			if err := e.update(); err != nil {
				return err
			}
			uIssued++
			continue
		}
		if len(e.born) > 0 && e.qRng.Float64() < growthNewbornBias {
			recent := e.born[max(0, len(e.born)-16):]
			b := recent[e.qRng.Intn(len(recent))]
			e.coneQuery(perturb(e.qRng, geom.FromRADec(b.RA, b.Dec), 0.2*math.Pi/180),
				0.3+e.qRng.Float64()*0.7, cost.MB)
		} else {
			e.coneQuery(perturb(e.qRng, anchors[e.qRng.Intn(len(anchors))], 1.5*math.Pi/180),
				0.3+e.qRng.Float64()*1.7, cost.MB)
		}
		qIssued++
	}
	return nil
}
