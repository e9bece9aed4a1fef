package main

import (
	"context"
	"testing"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
	"github.com/deltacache/delta/internal/workload"
)

// TestRunScenarioSmoke drives every registered scenario through the
// -scenario replay path against a live loopback deployment: each named
// trace must complete without a failed query or birth. This is the CLI
// counterpart of the scenario suite — it catches a scenario whose event
// stream the client-side replay can't serve (e.g. a query referencing
// an unpublished newborn).
func TestRunScenarioSmoke(t *testing.T) {
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
		Shards:   2,
		Mode:     cluster.HTMAware,
		// Headroom for growth-spurt births: newborns stay cacheable.
		ShardCapacity: 2 * cfg.TotalSize,
		Scale:         netproto.PayloadScale{},
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

	scenarios := workload.Scenarios()
	if len(scenarios) == 0 {
		t.Fatal("no registered scenarios")
	}
	for _, sc := range scenarios {
		t.Run(sc.Name(), func(t *testing.T) {
			if sc.Description() == "" {
				t.Errorf("scenario %s has no description", sc.Name())
			}
			if err := runScenario(context.Background(), cl, survey, sc.Name(), 48, 16, 4); err != nil {
				t.Fatalf("replay %s: %v", sc.Name(), err)
			}
		})
	}
}

// TestRunScenarioUnknown verifies the CLI surfaces a useful error for a
// bad -scenario name instead of silently replaying nothing.
func TestRunScenarioUnknown(t *testing.T) {
	survey, err := catalog.NewSurvey(catalog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := runScenario(context.Background(), nil, survey, "no-such-scenario", 8, 0, 1); err == nil {
		t.Fatal("expected an error for an unknown scenario name")
	}
}
