// Package deploy holds the node binaries' entry points. Server, Cache
// and Router each parse a command line, build their node, serve until
// stop closes and then close it; cmd/delta-server, cmd/delta-cache and
// cmd/delta-router are Main over them, so one test process can start a
// whole deployment from flags.
//
// Only the repository is told what the universe is (-objects, -seed).
// A cache or router builds its base survey from the config the
// repository serves and adopts the births through its own catch-up,
// so no node can start over another universe than the repository's.
package deploy

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
	"github.com/deltacache/delta/internal/workload"
)

// Main runs a node binary: run gets the command line and a channel that
// closes on SIGINT or SIGTERM. A failure is printed and exits 1.
func Main(name string, run func(args []string, stop <-chan struct{}) error) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(os.Args[1:], ctx.Done())
	cancel()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// Server runs a repository node: it hosts the synthetic survey and,
// with -pipeline-rate, feeds itself synthetic telescope updates.
func Server(args []string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("delta-server", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:7707", "listen address")
		objects      = fs.Int("objects", 68, "number of data objects")
		seed         = fs.Int64("seed", 2, "survey seed")
		pipelineRate = fs.Duration("pipeline-rate", 0, "feed one synthetic update per interval (0 = off)")
		dataDir      = fs.String("data-dir", "", "directory for grown-universe snapshots and the birth journal; restarts recover births from it (empty = no persistence)")
		metricsAddr  = fs.String("metrics-addr", "", "debug HTTP address serving /metrics, /healthz, /debug/traces and /debug/pprof (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scfg := catalog.DefaultConfig()
	scfg.Seed = *seed
	scfg.NumObjects = *objects
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		return err
	}
	repo, err := server.New(server.Config{
		Addr:        *addr,
		Survey:      survey,
		Scale:       netproto.DefaultScale(),
		DataDir:     *dataDir,
		MetricsAddr: *metricsAddr,
		Logf:        log.Printf,
	})
	if err != nil {
		return err
	}
	if err := repo.Start(); err != nil {
		return err
	}
	log.Printf("repository ready on %s (%d objects, %v total)",
		repo.Addr(), survey.NumObjects(), survey.TotalSize())
	if *pipelineRate > 0 {
		go feedPipeline(repo, survey, *seed, *pipelineRate, stop)
	}
	<-stop
	log.Printf("shutting down; final ledger: %+v (dropped invalidations: %d)",
		repo.Ledger(), repo.DroppedInvalidations())
	return repo.Close()
}

// feedPipeline generates an endless synthetic update stream using the
// workload generator's update model.
func feedPipeline(repo *server.Repository, survey *catalog.Survey, seed int64, rate time.Duration, stop <-chan struct{}) {
	wcfg := workload.DefaultConfig()
	wcfg.Seed = seed
	// Pre-generate a long update-only trace and loop over it.
	wcfg.NumQueries = 0
	wcfg.NumUpdates = 100_000
	gen, err := workload.NewGenerator(survey, wcfg)
	if err != nil {
		log.Printf("pipeline: %v", err)
		return
	}
	events, err := gen.Generate()
	if err != nil {
		log.Printf("pipeline: %v", err)
		return
	}
	ticker := time.NewTicker(rate)
	defer ticker.Stop()
	i := 0
	var idBase model.UpdateID
	start := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			u := *events[i%len(events)].Update
			u.ID += idBase
			u.Time = time.Since(start)
			repo.ApplyUpdate(u)
			i++
			if i%len(events) == 0 {
				idBase += model.UpdateID(len(events))
			}
		}
	}
}

// Cache runs a middleware cache node, standalone or (-shard) as a
// cluster shard.
func Cache(args []string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("delta-cache", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7708", "client-facing listen address")
		repoAddr    = fs.String("repo", "127.0.0.1:7707", "repository address; the node builds its survey from the config the repository serves")
		policyName  = fs.String("policy", "vcover", "decoupling policy: vcover|benefit|nocache|replica")
		cacheFrac   = fs.Float64("cache-frac", 0.3, "cache size as a fraction of what the node holds: the whole survey, or a shard's owned objects")
		shard       = fs.Bool("shard", false, "run as a cluster shard: own nothing until the router's reshard says what to own")
		dataDir     = fs.String("data-dir", "", "directory for warm-state snapshots and the decision journal; restarts rejoin warm from it (empty = no persistence)")
		metricsAddr = fs.String("metrics-addr", "", "debug HTTP address serving /metrics, /healthz, /debug/traces and /debug/pprof (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// One instance for the node's whole life: a cluster resize changes
	// its universe live (cache.Middleware.Reshard).
	policy, err := policyFor(*policyName)
	if err != nil {
		return err
	}
	survey, err := baseSurvey(*repoAddr)
	if err != nil {
		return err
	}
	// Capacity is a fraction of what the node can be asked to hold:
	// the whole survey standalone; as a shard, each reshard resizes it
	// to the same fraction of what the router gives it.
	capacity := cost.Bytes(float64(survey.TotalSize()) * *cacheFrac)
	// Region queries resolve only on a standalone cache: a cluster
	// shard owns a subset of the sky, so regions must resolve at the
	// router.
	var regions *catalog.Survey
	if !*shard {
		regions = survey
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
		ReshardCapacity: cache.FractionalCapacity(*cacheFrac),
		Scale:           netproto.DefaultScale(),
		Regions:         regions,
		DataDir:         *dataDir,
		MetricsAddr:     *metricsAddr,
		Logf:            log.Printf,
	})
	if err != nil {
		return err
	}
	if err := mw.Start(); err != nil {
		mw.Close()
		return err
	}
	if *shard {
		log.Printf("cache ready on %s as a cluster shard (policy %s), waiting for its router's reshard",
			mw.Addr(), *policyName)
	} else {
		log.Printf("cache ready on %s (policy %s, capacity %v)", mw.Addr(), *policyName, capacity)
	}
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

// Router runs the cluster routing tier over -shards.
func Router(args []string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("delta-router", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7708", "client-facing listen address")
		shardList = fs.String("shards", "", "comma-separated shard addresses, in shard order")
		repoAddr  = fs.String("repo", "", "repository address (required): the router builds its survey from the config the repository serves, adopts its births, publishes new ones and follows its invalidation stream")
		metrics   = fs.String("metrics-addr", "", "debug HTTP address serving /metrics, /healthz, /debug/traces and /debug/pprof (empty = off)")
		replicas  = fs.Int("replicas", 1, "replication factor K: how many shards hold each object")
		hedge     = fs.Bool("hedge", false, "enable hedged reads: re-scatter a slow fragment to the next replicas after the hedge delay (needs -replicas >= 2)")
		hedgeGap  = fs.Duration("hedge-delay", 0, "pin the hedge delay (0 derives it from the observed fragment latency p99)")
		resSize   = fs.Int("result-cache-size", 0, "bound on the router result cache + in-flight query coalescing (0 = default 1024 entries, -1 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shardList == "" {
		return fmt.Errorf("-shards is required (comma-separated shard addresses)")
	}
	if *repoAddr == "" {
		return fmt.Errorf("-repo is required (the repository address)")
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1, got %d", *replicas)
	}
	addrs := strings.Split(*shardList, ",")
	// The router starts over the base objects: it adopts the births at
	// startup and grants them to their shards with their metadata.
	survey, err := baseSurvey(*repoAddr)
	if err != nil {
		return err
	}
	own, err := core.NewOwnership(survey.Objects(), len(addrs), *replicas)
	if err != nil {
		return err
	}
	router, err := cluster.NewRouter(cluster.Config{
		Addr:            *addr,
		Shards:          addrs,
		Ownership:       own,
		RepoAddr:        *repoAddr,
		ResultCacheSize: *resSize,
		Regions:         survey,
		Hedge:           *hedge,
		HedgeDelay:      *hedgeGap,
		MetricsAddr:     *metrics,
		Logf:            log.Printf,
	})
	if err != nil {
		return err
	}
	if err := router.Start(); err != nil {
		router.Close()
		return err
	}
	for i, a := range addrs {
		log.Printf("shard %d at %s owns %d objects", i, a, len(router.Ownership().ShardObjects(i)))
	}
	<-stop
	log.Printf("shutting down; routed %d queries (%d scattered, %d degraded, %d failed over, %d hedged)",
		router.Queries(), router.Scattered(), router.Degraded(), router.Failover(), router.Hedged())
	return router.Close()
}

// baseSurvey builds the survey the repository at addr was built from,
// without its births: the node fetches those itself.
func baseSurvey(addr string) (*catalog.Survey, error) {
	sess, err := netproto.DialSession(addr, "client", netproto.SessionConfig{DialRetry: netproto.StartupDialRetry})
	if err != nil {
		return nil, fmt.Errorf("dial the repository: %w", err)
	}
	defer sess.Close()
	u, err := netproto.FetchUniverse(context.Background(), sess)
	if err != nil {
		return nil, fmt.Errorf("fetch the universe from %s: %w", addr, err)
	}
	return catalog.NewSurvey(u.Survey)
}
