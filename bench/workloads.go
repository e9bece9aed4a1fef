package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/experiments"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/workload"
)

// paperSeed is the reference trace of experiments.NewSetup, whose
// measurements the repository's experiment records cite. paper-trace
// always replays it, whatever -seed says: VCover makes a dozen or two
// load decisions on a 68-object universe, and any other input — another
// seed, a thinned or reshuffled copy of this one — moves hit rate by
// ±0.1 and traffic ratio by ±0.15 (README, "Noise"), which would bury
// any policy regression the workload exists to catch. The paper, too,
// replays one trace.
const paperSeed = 2

// workloadSpec is one of the benchmark's traffic mixes: how to build
// its inputs and what topology serves them.
type workloadSpec struct {
	name string
	why  string
	// clients is how many closed-loop client connections replay the
	// trace's queries, one query in flight each.
	clients func() int
	build   func(seed int64, scale float64) (*input, error)
}

// input is everything generated for one repetition. The program under
// test only ever sees events and the pristine survey's objects.
type input struct {
	// surveyCfg rebuilds the survey as the repository must see it:
	// pristine, without the births the generator applied to its own
	// instance while it produced the trace.
	surveyCfg catalog.Config
	events    []model.Event
	// warm is how many leading events are replayed before the clock
	// starts.
	warm int
	// cluster selects repository + 2 HTM shards + router; otherwise
	// repository + one cache.
	cluster bool
	// capacity is the cache size of the single cache, or of each shard
	// (zero: each shard holds exactly its owned set).
	capacity cost.Bytes
	// policy builds the cache's (or one shard's) decision policy.
	policy func() core.Policy
	// paper is the experiments setup behind paper-trace, whose policies
	// the simulator replays beside the live run; nil elsewhere.
	paper *experiments.Setup

	generateS float64
}

func nproc() int { return runtime.GOMAXPROCS(0) }

func scaled(n int, scale float64) int {
	return max(int(math.Round(float64(n)*scale)), 1)
}

// clusterSurveyConfig is the level-5 uniform mesh the cluster workloads
// share: fine enough that cone covers resolve to small object sets,
// like the deployed shape. Object sizes shrink with the trace, as in
// experiments.NewSetup: whether loading an object pays off depends on
// the query traffic it sees against its load cost, so a shorter trace
// over full-size objects would be a different, colder workload.
func clusterSurveyConfig(seed int64, scale float64) catalog.Config {
	size := func(b cost.Bytes) cost.Bytes { return max(cost.Bytes(float64(b)*scale), 1) }
	return catalog.Config{
		Seed:          seed,
		NumObjects:    8192,
		TotalSize:     size(8 * cost.GB),
		MinObjectSize: size(64 * cost.KB),
		MaxObjectSize: size(16 * cost.MB),
		Blobs:         10,
		Uniform:       true,
	}
}

func defaultVCover() core.Policy { return core.NewVCover(core.DefaultVCoverConfig()) }

// generated wraps the common tail of the three cluster workloads: time
// a generator run against a scratch survey that the repository never
// sees.
func generated(scfg catalog.Config, gen func(*catalog.Survey) ([]model.Event, error)) (*input, error) {
	scratch, err := catalog.NewSurvey(scfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	events, err := gen(scratch)
	if err != nil {
		return nil, err
	}
	return &input{
		surveyCfg: scfg,
		events:    events,
		cluster:   true,
		policy:    defaultVCover,
		generateS: time.Since(start).Seconds(),
	}, nil
}

func baseGenerator(cfg workload.Config) func(*catalog.Survey) ([]model.Event, error) {
	return func(s *catalog.Survey) ([]model.Event, error) {
		gen, err := workload.NewGenerator(s, cfg)
		if err != nil {
			return nil, err
		}
		return gen.Generate()
	}
}

// workloads lists the four traffic mixes in their normative order.
var workloads = []workloadSpec{
	{
		name: "paper-trace",
		why:  "the paper's deployment and trace: working set far above a 30% cache, so loads, evictions and shipping dominate",
		// One client, because decisions depend on arrival order: two
		// clients swing traffic ratio between 0.68 and 0.80, one repeats
		// to the fourth digit — and it is how the paper replays.
		clients: func() int { return 1 },
		build: func(_ int64, scale float64) (*input, error) {
			start := time.Now()
			setup, err := experiments.NewSetup(experiments.Options{Scale: scale, Seed: paperSeed})
			if err != nil {
				return nil, err
			}
			return &input{
				surveyCfg: setup.Survey.Config(),
				events:    setup.Events,
				capacity:  setup.Capacity(),
				// The policy experiments.Policies replays in the simulator,
				// so the live ledger can be held against sim's.
				policy: func() core.Policy {
					return core.NewVCover(core.VCoverConfig{Seed: setup.Seed, GDSF: true})
				},
				paper:     setup,
				generateS: time.Since(start).Seconds(),
			}, nil
		},
	},
	{
		name:    "all-sky",
		why:     "read-only over a fully resident sharded cluster: the shard hit path and router scatter/merge do all the work",
		clients: nproc,
		build: func(seed int64, scale float64) (*input, error) {
			cfg := workload.DefaultConfig()
			cfg.Seed = seed
			cfg.BackgroundQueryFrac = 1
			cfg.NumQueries = scaled(300_000, scale)
			cfg.NumUpdates = 0
			in, err := generated(clusterSurveyConfig(seed, scale), baseGenerator(cfg))
			if err != nil {
				return nil, err
			}
			in.warm = len(in.events) / 3
			return in, nil
		},
	},
	{
		name:    "flash-crowd",
		why:     "router result cache and coalescer answer nearly everything; updates on unqueried sky make the write path pure overhead",
		clients: nproc,
		build: func(seed int64, scale float64) (*input, error) {
			scfg := clusterSurveyConfig(seed, scale)
			sc, err := workload.Lookup("flash-crowd")
			if err != nil {
				return nil, err
			}
			in, err := generated(scfg, func(s *catalog.Survey) ([]model.Event, error) {
				return sc.Events(s, workload.Options{
					Seed:    seed,
					Queries: scaled(300_000, scale),
					Updates: scaled(120_000, scale),
				})
			})
			if err != nil {
				return nil, err
			}
			in.capacity = 2 * scfg.TotalSize
			return in, nil
		},
	},
	{
		name:    "growing-sky",
		why:     "births and updates that intersect the reads: grants, invalidations, update shipping and evictions on 15% shards",
		clients: nproc,
		build: func(seed int64, scale float64) (*input, error) {
			scfg := clusterSurveyConfig(seed, scale)
			cfg := workload.DefaultConfig()
			cfg.Seed = seed
			cfg.NumQueries = scaled(100_000, scale)
			cfg.NumUpdates = scaled(100_000, scale)
			cfg.GrowthObjects = scaled(4000, scale)
			cfg.BirthBias = 0.3
			in, err := generated(scfg, baseGenerator(cfg))
			if err != nil {
				return nil, err
			}
			in.capacity = scfg.TotalSize * 15 / 100
			return in, nil
		},
	},
}

func lookupWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
