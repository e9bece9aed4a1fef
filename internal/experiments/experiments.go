// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment builds the synthetic SDSS-like
// survey and workload, replays it through the five policies under the
// simulator, and returns the series/rows the paper plots. The
// delta-bench command is a thin wrapper over this package, and the
// benchmark's paper-trace workload replays NewSetup's reference trace.
package experiments

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/sim"
	"github.com/deltacache/delta/internal/workload"
)

// Setup is a prepared experiment environment: survey, trace, and cache
// sizing.
type Setup struct {
	Survey *catalog.Survey
	Events []model.Event
	// CacheFrac is the cache size as a fraction of the server's total
	// (paper default 0.3).
	CacheFrac float64
	// SampleEvery controls series resolution.
	SampleEvery int
	// BenefitWindow is δ for the Benefit policy (paper default 1000).
	BenefitWindow int
	Seed          int64
}

// Options tweaks setup construction.
type Options struct {
	// Scale multiplies the paper's 250k/250k event counts; tests and
	// benchmarks use small scales, `delta-bench -scale 1` the full one.
	Scale float64
	// NumObjects overrides the default 68-object partition.
	NumObjects int
	// NumUpdates overrides the scaled update count (Figure 8a sweeps
	// it); zero keeps the scaled default.
	NumUpdates int
	// CacheFrac overrides the default 0.3.
	CacheFrac float64
	Seed      int64
}

// NewSetup builds a survey and trace per the paper's defaults, modified
// by opts.
func NewSetup(opts Options) (*Setup, error) {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	if opts.CacheFrac == 0 {
		opts.CacheFrac = 0.3
	}
	if opts.Seed == 0 {
		// The default trace, like the paper's single SDSS trace, is one
		// specific workload; seed 2 is the reference trace whose
		// measurements EXPERIMENTS.md records.
		opts.Seed = 2
	}
	scfg := catalog.DefaultConfig()
	scfg.Seed = opts.Seed
	if opts.NumObjects > 0 {
		scfg.NumObjects = opts.NumObjects
	}
	// Scaling a trace down must preserve the paper's regime: the ratio
	// of cumulative query traffic on a hot object to that object's load
	// cost decides whether caching can pay off. Scale the repository
	// with the event count.
	scfg.TotalSize = scaleBytes(scfg.TotalSize, opts.Scale, cost.MB)
	scfg.MinObjectSize = scaleBytes(scfg.MinObjectSize, opts.Scale, 64*cost.KB)
	scfg.MaxObjectSize = scaleBytes(scfg.MaxObjectSize, opts.Scale, cost.MB)
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	wcfg := workload.DefaultConfig()
	wcfg.Seed = opts.Seed
	wcfg.NumQueries = int(math.Round(float64(wcfg.NumQueries) * opts.Scale))
	wcfg.NumUpdates = int(math.Round(float64(wcfg.NumUpdates) * opts.Scale))
	if opts.NumUpdates > 0 {
		wcfg.NumUpdates = opts.NumUpdates
	}
	gen, err := workload.NewGenerator(survey, wcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	events, err := gen.Generate()
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	sampleEvery := len(events) / 100
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	// δ=1000 was tuned by the paper for 500k-event traces; keep the
	// window proportional when the trace is scaled down.
	window := int(math.Round(1000 * opts.Scale))
	if window < 32 {
		window = 32
	}
	return &Setup{
		Survey:        survey,
		Events:        events,
		CacheFrac:     opts.CacheFrac,
		SampleEvery:   sampleEvery,
		BenefitWindow: window,
		Seed:          opts.Seed,
	}, nil
}

func scaleBytes(b cost.Bytes, scale float64, floor cost.Bytes) cost.Bytes {
	scaled := cost.Bytes(float64(b) * scale)
	if scaled < floor {
		return floor
	}
	return scaled
}

// Capacity returns the absolute cache capacity for the setup.
func (s *Setup) Capacity() cost.Bytes {
	return cost.Bytes(float64(s.Survey.TotalSize()) * s.CacheFrac)
}

// PostWarmup returns each policy's traffic accumulated after the warm-up
// boundary (the paper plots Figure 7b only beyond event 250k of 500k,
// excluding warm-up costs). frac is the boundary as a fraction of the
// event sequence.
func PostWarmup(results map[string]*sim.Result, frac float64) map[string]cost.Bytes {
	out := make(map[string]cost.Bytes, len(results))
	for name, res := range results {
		out[name] = res.Total() - baselineAt(res, frac)
	}
	return out
}

func baselineAt(res *sim.Result, frac float64) cost.Bytes {
	if len(res.Series) == 0 {
		return 0
	}
	cut := res.Series[len(res.Series)-1].Seq
	boundary := int64(float64(cut) * frac)
	var base cost.Bytes
	for _, pt := range res.Series {
		if pt.Seq > boundary {
			break
		}
		base = pt.Total
	}
	return base
}

// Policies returns fresh instances of the five policies of Section 6, in
// the paper's presentation order.
func (s *Setup) Policies() []core.Policy {
	return []core.Policy{
		core.NewNoCache(),
		core.NewReplica(),
		core.NewBenefit(core.BenefitConfig{Window: s.BenefitWindow, Alpha: 0.3, LoadAmortization: 16}),
		core.NewVCover(core.VCoverConfig{Seed: s.Seed, GDSF: true}),
		core.NewSOptimal(s.Events),
	}
}

// RunAll replays the trace through every policy and returns results
// keyed by policy name. It fails on any constraint violation: the
// experiments must be trustworthy.
func (s *Setup) RunAll() (map[string]*sim.Result, error) {
	results := make(map[string]*sim.Result, 5)
	for _, p := range s.Policies() {
		res, err := s.RunOne(p)
		if err != nil {
			return nil, err
		}
		results[res.Policy] = res
	}
	return results, nil
}

// RunOne replays the trace through a single policy, failing on any
// constraint violation like RunAll.
func (s *Setup) RunOne(p core.Policy) (*sim.Result, error) {
	res, err := sim.Run(p, s.Survey.Objects(), s.Events, sim.Config{
		CacheCapacity: s.Capacity(),
		SampleEvery:   s.SampleEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", p.Name(), err)
	}
	if len(res.Violations) > 0 {
		return nil, fmt.Errorf("experiments: %s violated constraints: %s",
			p.Name(), res.Violations[0])
	}
	return res, nil
}

// PolicyNames is the canonical ordering for tables.
var PolicyNames = []string{"NoCache", "Replica", "Benefit", "VCover", "SOptimal"}

// Fig7a writes the Figure 7(a) scatter (object-ID incidence along the
// event sequence) as CSV.
func Fig7a(s *Setup, w io.Writer) error {
	return ScatterCSV(w, s.Events, len(s.Events)/4000)
}

// ScatterCSV writes the Figure 7(a) scatter: one row per (event,
// object) incidence with the event kind. Sampling every k-th event
// keeps files small; k <= 1 writes every event.
func ScatterCSV(w io.Writer, events []model.Event, k int) error {
	k = max(k, 1)
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "event,object,kind"); err != nil {
		return err
	}
	for i := 0; i < len(events); i += k {
		e := &events[i]
		switch e.Kind {
		case model.EventQuery:
			for _, o := range e.Query.Objects {
				fmt.Fprintf(bw, "%d,%d,query\n", e.Seq, o)
			}
		case model.EventUpdate:
			fmt.Fprintf(bw, "%d,%d,update\n", e.Seq, e.Update.Object)
		}
	}
	return bw.Flush()
}

// Fig7bRow is one sample of the cumulative-traffic comparison.
type Fig7bRow struct {
	Seq    int64
	Totals map[string]cost.Bytes
}

// Fig7b produces the cumulative traffic cost along the event sequence
// for all five policies (Figure 7b).
func Fig7b(s *Setup) ([]Fig7bRow, map[string]*sim.Result, error) {
	results, err := s.RunAll()
	if err != nil {
		return nil, nil, err
	}
	// All series share sampling points by construction.
	ref := results["NoCache"].Series
	rows := make([]Fig7bRow, len(ref))
	for i := range ref {
		rows[i] = Fig7bRow{Seq: ref[i].Seq, Totals: make(map[string]cost.Bytes, 5)}
		for name, res := range results {
			if i < len(res.Series) {
				rows[i].Totals[name] = res.Series[i].Total
			}
		}
	}
	return rows, results, nil
}

// Fig8aRow is the final traffic cost of every policy at one update
// count, both over the whole trace and post-warmup (the regime the
// paper plots).
type Fig8aRow struct {
	NumUpdates int
	Totals     map[string]cost.Bytes
	PostTotals map[string]cost.Bytes
}

// Fig8a varies the number of updates with the query workload fixed
// (Figure 8a). Update counts are given in absolute numbers already
// scaled by the caller.
func Fig8a(opts Options, updateCounts []int) ([]Fig8aRow, error) {
	rows := make([]Fig8aRow, 0, len(updateCounts))
	for _, n := range updateCounts {
		o := opts
		o.NumUpdates = n
		s, err := NewSetup(o)
		if err != nil {
			return nil, err
		}
		results, err := s.RunAll()
		if err != nil {
			return nil, err
		}
		row := Fig8aRow{
			NumUpdates: n,
			Totals:     make(map[string]cost.Bytes, 5),
			PostTotals: PostWarmup(results, 0.5),
		}
		for name, res := range results {
			row.Totals[name] = res.Total()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig8bRow is VCover's cumulative traffic series at one object
// granularity.
type Fig8bRow struct {
	NumObjects int
	Series     []sim.Point
	Final      cost.Bytes
}

// Fig8b runs VCover at each object-set granularity (Figure 8b; paper
// values 10..532).
func Fig8b(opts Options, objectCounts []int) ([]Fig8bRow, error) {
	rows := make([]Fig8bRow, 0, len(objectCounts))
	for _, n := range objectCounts {
		o := opts
		o.NumObjects = n
		s, err := NewSetup(o)
		if err != nil {
			return nil, err
		}
		res, err := s.RunOne(core.NewVCover(core.VCoverConfig{Seed: s.Seed, GDSF: true}))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8bRow{NumObjects: n, Series: res.Series, Final: res.Total()})
	}
	return rows, nil
}

// CacheSizeRow is the final traffic of the capacity-respecting policies
// at one cache fraction, full-trace and post-warmup.
type CacheSizeRow struct {
	CacheFrac  float64
	Totals     map[string]cost.Bytes
	PostTotals map[string]cost.Bytes
}

// CacheSize sweeps the cache size (the paper's headline: VCover halves
// traffic with a cache one-fifth of the server).
func CacheSize(opts Options, fracs []float64) ([]CacheSizeRow, error) {
	rows := make([]CacheSizeRow, 0, len(fracs))
	for _, f := range fracs {
		o := opts
		o.CacheFrac = f
		s, err := NewSetup(o)
		if err != nil {
			return nil, err
		}
		results, err := s.RunAll()
		if err != nil {
			return nil, err
		}
		row := CacheSizeRow{
			CacheFrac:  f,
			Totals:     make(map[string]cost.Bytes, 5),
			PostTotals: PostWarmup(results, 0.5),
		}
		for name, res := range results {
			row.Totals[name] = res.Total()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WindowRow is Benefit's final traffic at one window size δ.
type WindowRow struct {
	Window int
	Total  cost.Bytes
}

// BenefitWindowSweep varies δ (the paper chose 1000 by sweeping).
func BenefitWindowSweep(opts Options, windows []int) ([]WindowRow, error) {
	s, err := NewSetup(opts)
	if err != nil {
		return nil, err
	}
	rows := make([]WindowRow, 0, len(windows))
	for _, w := range windows {
		res, err := s.RunOne(core.NewBenefit(core.BenefitConfig{Window: w, Alpha: 0.3, LoadAmortization: 16}))
		if err != nil {
			return nil, err
		}
		rows = append(rows, WindowRow{Window: w, Total: res.Total()})
	}
	return rows, nil
}

// WarmupRow reports the warm-up length of VCover for one seed: the
// number of events before the cache first reaches half its final
// occupancy.
type WarmupRow struct {
	Seed         int64
	WarmupEvents int64
	FinalUsed    cost.Bytes
}

// Warmup characterizes the warm-up period across seeds (Section 6.1
// reports 150k–300k events on the paper's traces).
func Warmup(opts Options, seeds []int64) ([]WarmupRow, error) {
	rows := make([]WarmupRow, 0, len(seeds))
	for _, seed := range seeds {
		o := opts
		o.Seed = seed
		s, err := NewSetup(o)
		if err != nil {
			return nil, err
		}
		vc := core.NewVCover(core.VCoverConfig{Seed: seed, GDSF: true})
		res, err := s.RunOne(vc)
		if err != nil {
			return nil, err
		}
		// Loads are visible in the series as ObjectLoad traffic; find
		// the first sample with at least half the final load traffic.
		finalLoads := res.Ledger.ObjectLoad
		var warm int64
		for _, pt := range res.Series {
			if pt.ObjectLoad*2 >= finalLoads {
				warm = pt.Seq
				break
			}
		}
		rows = append(rows, WarmupRow{Seed: seed, WarmupEvents: warm, FinalUsed: res.MaxUsed})
	}
	return rows, nil
}
