package main

import (
	"context"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

// TestRunGrowTwiceOnReplicatedCluster runs -grow twice against a K=2
// cluster, each run with a fresh survey mirror as a new process has.
// The second run must replay each earlier birth once: the shards'
// delta_objects_born_total counts every birth once per holder, and
// replaying that many would publish IDs past the repository's next.
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
		Mode:     cluster.HTMAware,
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	cl, err := client.DialCluster(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const perRun = 2
	for run := 1; run <= 2; run++ {
		mirror, err := catalog.NewSurvey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := runGrow(context.Background(), cl, mirror, perRun, 1, time.Now()); err != nil {
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
