package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

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
	_, cl := dialLocalCluster(t, cluster.LocalConfig{
		Shards: 2,
		// Headroom for growth-spurt births: newborns stay cacheable.
		ShardCapacity: 2 * catalog.DefaultConfig().TotalSize,
		Scale:         netproto.PayloadScale{},
	})
	scenarios := workload.Scenarios()
	if len(scenarios) == 0 {
		t.Fatal("no registered scenarios")
	}
	for _, sc := range scenarios {
		t.Run(sc.Name(), func(t *testing.T) {
			if sc.Description() == "" {
				t.Errorf("scenario %s has no description", sc.Name())
			}
			survey, err := cl.Survey(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runScenario(context.Background(), cl, survey, sc.Name(), 48, 16, 4); err != nil {
				t.Fatalf("replay %s: %v", sc.Name(), err)
			}
		})
	}
}

// TestRunScenarioTwiceGrowsTheRepository replays growth-spurt twice in a
// row, each over a fresh mirror fetched from the deployment, as two
// delta-client processes would. Each replay must raise the repository's
// born count by exactly the births it published: a replay whose births
// the repository already holds, or numbers past its next ID, publishes
// nothing new.
func TestRunScenarioTwiceGrowsTheRepository(t *testing.T) {
	repo, cl := dialLocalCluster(t, cluster.LocalConfig{
		Shards:        2,
		ShardCapacity: 2 * catalog.DefaultConfig().TotalSize,
		Scale:         netproto.PayloadScale{},
	})
	ctx := context.Background()
	for replay := 1; replay <= 2; replay++ {
		survey, err := cl.Survey(ctx)
		if err != nil {
			t.Fatal(err)
		}
		before := repo.Stats().Metric("delta_objects_born_total")
		births, err := runScenario(ctx, cl, survey, "growth-spurt", 48, 16, 4)
		if err != nil {
			t.Fatalf("replay %d: %v", replay, err)
		}
		if births == 0 {
			t.Fatalf("replay %d published no births", replay)
		}
		if got := repo.Stats().Metric("delta_objects_born_total") - before; got != float64(births) {
			t.Errorf("replay %d published %d births; the repository ingested %v", replay, births, got)
		}
	}
}

// TestRunScenarioUnknown verifies the CLI surfaces a useful error for a
// bad -scenario name instead of silently replaying nothing.
func TestRunScenarioUnknown(t *testing.T) {
	survey, err := catalog.NewSurvey(catalog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runScenario(context.Background(), nil, survey, "no-such-scenario", 8, 0, 1); err == nil {
		t.Fatal("expected an error for an unknown scenario name")
	}
}

// TestRunDemoSmoke drives the -demo path: random cone queries compiled
// from SQL, fanned out over four workers, every one answered and
// counted in the summary line.
func TestRunDemoSmoke(t *testing.T) {
	_, cl := dialLocalCluster(t, cluster.LocalConfig{Shards: 2, Scale: netproto.PayloadScale{}})
	survey, err := cl.Survey(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runDemo(context.Background(), &out, cl, survey, 20, 4, time.Now()); err != nil {
		t.Fatal(err)
	}
	if want := "demo: 20 queries via 4 workers"; !strings.HasPrefix(out.String(), want) {
		t.Errorf("summary = %q, want it to start %q", out.String(), want)
	}
}

// dialLocalCluster starts a repository over the default survey and a
// SpawnLocal cluster over it (cfg's RepoAddr and Objects filled in), and
// returns the repository and a client of the cluster's router.
func dialLocalCluster(t *testing.T, cfg cluster.LocalConfig) (*server.Repository, *client.Client) {
	t.Helper()
	survey, err := catalog.NewSurvey(catalog.DefaultConfig())
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
	t.Cleanup(func() { repo.Close() })
	cfg.RepoAddr, cfg.Objects = repo.Addr(), survey.Objects()
	lc, err := cluster.SpawnLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return repo, cl
}
