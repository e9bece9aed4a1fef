package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

// TestRunGrowTwiceOnReplicatedCluster runs -grow twice against a K=2
// cluster, each run over a fresh mirror fetched from the deployment, as
// a new process has. The second run must number its births after the
// first run's, so the repository and the router adopt all four.
func TestRunGrowTwiceOnReplicatedCluster(t *testing.T) {
	cfg := catalog.DefaultConfig()
	survey, err := catalog.NewSurvey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.PayloadScale{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   3,
		Replicas: 2,
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const perRun = 2
	for run := 1; run <= 2; run++ {
		mirror, err := cl.Survey(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := runGrow(context.Background(), cl, mirror, perRun, time.Now()); err != nil {
			t.Fatalf("grow run %d: %v", run, err)
		}
	}
	if got := lc.Router.Births(); got != 2*perRun {
		t.Errorf("router adopted %d births, want %d", got, 2*perRun)
	}
	if got := repo.Stats().Metric("delta_objects_born_total"); got != 2*perRun {
		t.Errorf("repository admitted %v births, want %d", got, 2*perRun)
	}
}

// TestUniverseFlagsRefused pins that the client learns the universe
// from the deployment: -objects, -seed and -grow-seed are not flags.
func TestUniverseFlagsRefused(t *testing.T) {
	for _, flag := range []string{"-objects", "-seed", "-grow-seed"} {
		err := run([]string{flag, "2", "-stats"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%s 2) = %v, want the flag refused", flag, err)
		}
	}
}
