// Command delta-cache runs the Delta middleware node: the dynamic data
// cache that sits near the clients and decouples data objects between
// itself and the repository using the configured policy.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "delta-cache:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", "127.0.0.1:7708", "client-facing listen address")
		repoAddr    = flag.String("repo", "127.0.0.1:7707", "repository address")
		policyName  = flag.String("policy", "vcover", "decoupling policy: vcover|benefit|nocache|replica")
		objects     = flag.Int("objects", 68, "number of data objects (must match the repository)")
		seed        = flag.Int64("seed", 2, "survey seed (must match the repository)")
		cacheFrac   = flag.Float64("cache-frac", 0.3, "cache size as a fraction of what the node holds: the whole survey, or a shard's owned objects")
		bytesPerGB  = flag.Int64("bytes-per-gb", 4096, "physical payload bytes per logical GB")
		shard       = flag.Bool("shard", false, "run as a cluster shard: own nothing until the router's reshard says what to own")
		dataDir     = flag.String("data-dir", "", "directory for warm-state snapshots and the decision journal; restarts rejoin warm from it (empty = no persistence)")
		snapEvery   = flag.Duration("snapshot-interval", 0, "periodic snapshot interval with -data-dir (0 = 30s default)")
		metricsAddr = flag.String("metrics-addr", "", "debug HTTP address serving /metrics, /healthz, /debug/traces and /debug/pprof (empty = off)")
	)
	flag.Parse()

	scfg := catalog.DefaultConfig()
	scfg.Seed = *seed
	scfg.NumObjects = *objects
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		return err
	}

	// Capacity is a fraction of what the node can be asked to hold:
	// the whole survey standalone; as a shard, each reshard resizes it
	// to the same fraction of what the router gives it.
	capacity := cost.Bytes(float64(survey.TotalSize()) * *cacheFrac)

	// Region queries resolve only on a standalone cache: a cluster
	// shard owns a subset of the sky, so regions must resolve at the
	// router. The grow hook keeps the resolver survey extending with
	// live births so region covers include newborns.
	var (
		resolver     func(geom.Cap) []model.ObjectID
		resolverGrow func([]model.Birth) error
	)
	if !*shard {
		resolver = survey.CoverCap
		resolverGrow = func(births []model.Birth) error {
			for _, b := range births {
				if err := survey.AddObject(b); err != nil {
					return err
				}
			}
			return nil
		}
	}

	// One instance for the node's whole life: a cluster resize changes
	// its universe live (cache.Middleware.Reshard).
	policy, err := policyFor(*policyName)
	if err != nil {
		return err
	}

	mw, err := cache.New(cache.Config{
		Addr:     *addr,
		RepoAddr: *repoAddr,
		Policy:   policy,
		Objects:  survey.Objects(),
		Shard:    *shard,
		Capacity: capacity,
		// Across live reshards the cache keeps holding the same
		// fraction of whatever it currently owns.
		ReshardCapacity:  cache.FractionalCapacity(*cacheFrac),
		Scale:            netproto.PayloadScale{BytesPerGB: *bytesPerGB},
		Resolver:         resolver,
		ResolverGrow:     resolverGrow,
		DataDir:          *dataDir,
		SnapshotInterval: *snapEvery,
		MetricsAddr:      *metricsAddr,
		Logf:             log.Printf,
	})
	if err != nil {
		return err
	}
	if err := mw.Start(); err != nil {
		return err
	}
	if *shard {
		log.Printf("cache ready on %s as a cluster shard (policy %s), waiting for its router's reshard",
			mw.Addr(), *policyName)
	} else {
		log.Printf("cache ready on %s (policy %s, capacity %v)", mw.Addr(), *policyName, capacity)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("shutting down; final ledger: %+v", mw.Ledger())
	return mw.Close()
}

func policyFor(name string) (core.Policy, error) {
	switch name {
	case "vcover":
		return core.NewVCover(core.DefaultVCoverConfig()), nil
	case "benefit":
		return core.NewBenefit(core.DefaultBenefitConfig()), nil
	case "nocache":
		return core.NewNoCache(), nil
	case "replica":
		return core.NewReplica(), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
