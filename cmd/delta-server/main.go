// Command delta-server runs a Delta repository node: it hosts the
// synthetic survey, listens for cache/client connections, and — when
// -pipeline-rate is set — feeds itself synthetic telescope updates, so a
// full deployment can be demonstrated without external drivers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
	"github.com/deltacache/delta/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "delta-server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:7707", "listen address")
		objects      = flag.Int("objects", 68, "number of data objects")
		seed         = flag.Int64("seed", 2, "survey seed")
		pipelineRate = flag.Duration("pipeline-rate", 0, "feed one synthetic update per interval (0 = off)")
		dataDir      = flag.String("data-dir", "", "directory for grown-universe snapshots and the birth journal; restarts recover births from it (empty = no persistence)")
		metricsAddr  = flag.String("metrics-addr", "", "debug HTTP address serving /metrics, /healthz, /debug/traces and /debug/pprof (empty = off)")
	)
	flag.Parse()

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

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	done := make(chan struct{})
	if *pipelineRate > 0 {
		go feedPipeline(repo, survey, *seed, *pipelineRate, done)
	}

	<-stop
	close(done)
	log.Printf("shutting down; final ledger: %+v (dropped invalidations: %d)",
		repo.Ledger(), repo.DroppedInvalidations())
	return repo.Close()
}

// feedPipeline generates an endless synthetic update stream using the
// workload generator's update model.
func feedPipeline(repo *server.Repository, survey *catalog.Survey, seed int64, rate time.Duration, done <-chan struct{}) {
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
		case <-done:
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
