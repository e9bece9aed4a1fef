// Command delta-router runs the cluster routing tier: a partition-aware
// front that makes N cache shards look like one Delta cache. Ownership
// is a pure function of the survey config, the shard count, the mode
// and -replicas, and the router is the only node that computes it: a
// `delta-cache -shard` starts owning nothing, and the router's first
// reshard, at startup, tells each shard what it owns:
//
//	delta-cache -repo :7707 -addr :7801 -shard &
//	delta-cache -repo :7707 -addr :7802 -shard &
//	delta-router -addr :7708 -shards 127.0.0.1:7801,127.0.0.1:7802
//
// A shard built from another survey than the router's refuses that
// reshard, and the router exits with the disagreement. Clients connect
// to the router exactly as they would to a single cache; multi-object
// queries scatter to the owning shards and merge.
//
// The router also serves the live-resize admin frames: start the new
// shards (with `-shard`) and then
//
//	delta-client -cache :7708 -resize 127.0.0.1:7801,127.0.0.1:7802,127.0.0.1:7803,127.0.0.1:7804
//
// takes the cluster from 2 to 4 shards while it serves: each new holder
// adopts warm, in its widen reshard, the moving objects its old
// primary held resident (see docs/CLUSTER.md, "Resizing a live
// cluster").
//
// With `-repo` set the router also serves live universe growth: it
// subscribes to the repository's invalidation stream, adopts newly
// published objects into routing (granting each to its owning shard),
// and accepts `delta-client -grow` publications (docs/CLUSTER.md,
// "Growing the universe").
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/model"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "delta-router:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:7708", "client-facing listen address")
		shardList = flag.String("shards", "", "comma-separated shard addresses, in shard order")
		repoAddr  = flag.String("repo", "", "repository address; enables live universe growth (birth publication + announcement adoption)")
		modeName  = flag.String("mode", "htm", "ownership mode: htm|rendezvous")
		objects   = flag.Int("objects", 68, "number of data objects (must match the deployment; the shards check)")
		seed      = flag.Int64("seed", 2, "survey seed (must match the deployment; the shards check)")
		dialRetry = flag.Duration("dial-retry", 5*time.Second, "how long to retry refused shard dials (startup race)")
		metrics   = flag.String("metrics-addr", "", "debug HTTP address serving /metrics, /healthz, /debug/traces and /debug/pprof (empty = off)")
		replicas  = flag.Int("replicas", 1, "replication factor K: how many shards hold each object")
		hedge     = flag.Bool("hedge", false, "enable hedged reads: re-scatter a slow fragment to the next replicas after the hedge delay (needs -replicas >= 2)")
		hedgeGap  = flag.Duration("hedge-delay", 0, "pin the hedge delay (0 derives it from the observed fragment latency p99)")
		resSize   = flag.Int("result-cache-size", 0, "bound on the router result cache + in-flight query coalescing, which need -repo for the invalidation stream (0 = default 1024 entries, -1 = off)")
	)
	flag.Parse()

	addrs := strings.Split(*shardList, ",")
	if *shardList == "" || len(addrs) == 0 {
		return fmt.Errorf("-shards is required (comma-separated shard addresses)")
	}
	mode, err := cluster.ParseMode(*modeName)
	if err != nil {
		return err
	}

	scfg := catalog.DefaultConfig()
	scfg.Seed = *seed
	scfg.NumObjects = *objects
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		return err
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1, got %d", *replicas)
	}
	own, err := cluster.NewOwnershipReplicated(survey.Objects(), len(addrs), *replicas, mode)
	if err != nil {
		return err
	}

	router, err := cluster.NewRouter(cluster.Config{
		Addr:            *addr,
		Shards:          addrs,
		Ownership:       own,
		RepoAddr:        *repoAddr,
		DialRetry:       *dialRetry,
		ResultCacheSize: *resSize,
		Resolver:        survey.CoverCap,
		// Keep the resolver survey extending with live births, so
		// region covers include newborns published after startup.
		ResolverGrow: func(births []model.Birth) error {
			for _, b := range births {
				if err := survey.AddObject(b); err != nil {
					return err
				}
			}
			return nil
		},
		Hedge:       *hedge,
		HedgeDelay:  *hedgeGap,
		MetricsAddr: *metrics,
		Logf:        log.Printf,
	})
	if err != nil {
		return err
	}
	if err := router.Start(); err != nil {
		return err
	}
	for _, si := range router.Topology().Shards {
		log.Printf("shard %d at %s owns %d objects", si.Index, si.Addr, len(si.Objects))
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("shutting down; routed %d queries (%d scattered, %d degraded, %d failed over, %d hedged)",
		router.Queries(), router.Scattered(), router.Degraded(), router.Failover(), router.Hedged())
	return router.Close()
}
