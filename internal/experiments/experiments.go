// Package experiments is the shared setup of the paper's evaluation
// (Section 6): it builds the synthetic SDSS-like survey and trace at a
// scale of the paper's, sizes the cache, and replays the trace through
// the five policies under the simulator. The delta-bench command runs
// the paper's figures over it, and the benchmark's paper-trace workload
// replays NewSetup's reference trace.
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
		// figures TestPaperFiguresGolden (cmd/delta-bench) pins.
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
		core.NewBenefit(core.BenefitConfig{Window: s.BenefitWindow}),
		core.NewVCover(core.DefaultVCoverConfig()),
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

// Trial is one trace seed replayed through the five policies: each
// policy's result, and its traffic after the warm-up boundary of
// Figure 7(b).
type Trial struct {
	Seed    int64
	Results map[string]*sim.Result
	Post    map[string]cost.Bytes
}

// AcrossSeeds builds the trace of every seed in seeds from opts (its
// Seed is ignored) and replays each through the five policies. One
// trace is one sample of the workload, so a claim about the paper's
// figures is scored over many.
func AcrossSeeds(opts Options, seeds []int64) ([]Trial, error) {
	trials := make([]Trial, 0, len(seeds))
	for _, seed := range seeds {
		o := opts
		o.Seed = seed
		s, err := NewSetup(o)
		if err != nil {
			return nil, err
		}
		results, err := s.RunAll()
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		trials = append(trials, Trial{Seed: seed, Results: results, Post: PostWarmup(results, 0.5)})
	}
	return trials, nil
}

// Check is one comparison Figure 7(b) makes between post-warmup totals.
type Check struct {
	Name  string
	Holds func(post map[string]cost.Bytes) bool
}

// Fig7bChecks are the paper's ordering, post-warmup:
// SOptimal <= VCover < NoCache, Benefit, Replica.
var Fig7bChecks = []Check{
	{"VCover<NoCache", func(p map[string]cost.Bytes) bool { return p["VCover"] < p["NoCache"] }},
	{"VCover<Benefit", func(p map[string]cost.Bytes) bool { return p["VCover"] < p["Benefit"] }},
	{"VCover<Replica", func(p map[string]cost.Bytes) bool { return p["VCover"] < p["Replica"] }},
	{"SOptimal<=VCover", func(p map[string]cost.Bytes) bool { return p["SOptimal"] <= p["VCover"] }},
}

// Wins counts the trials each of Fig7bChecks holds on, in order, then
// the trials on which all of them hold.
func Wins(trials []Trial) []int {
	wins := make([]int, len(Fig7bChecks)+1)
	for _, t := range trials {
		all := true
		for i, c := range Fig7bChecks {
			if c.Holds(t.Post) {
				wins[i]++
			} else {
				all = false
			}
		}
		if all {
			wins[len(Fig7bChecks)]++
		}
	}
	return wins
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
