package cache

import (
	"fmt"
	"math"
	"testing"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/experiments"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

// TestNoticeBudget is the standalone half of the cluster's notice
// budget: a seeded slice of paper-trace (the experiments' reference
// trace, seed 2), replayed in lockstep through one VCover cache. Every
// query is answered, every notice handled, and every registration and
// drop they caused installed before the next event. Unscoped, every
// update costs the cache one notice. Scoped, the cache registers an
// object when it loads it and drops it when it evicts it, so an update
// costs a notice only while its object is resident. The count is exact
// here, and pinned as a ceiling: 1000 when the stream was unfiltered,
// 838 when a node registered every object a query named, 212 when a
// load registered what it loads, and 64 since VCover buys loads with a
// per-object credit: it holds different residents.
func TestNoticeBudget(t *testing.T) {
	const ceiling = 64.0 / 1000 // notices per update
	setup, err := experiments.NewSetup(experiments.Options{Scale: 0.004, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	survey, err := catalog.NewSurvey(setup.Survey.Config()) // pristine: births arrive through the trace
	if err != nil {
		t.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.DefaultScale()})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	m, err := New(Config{
		RepoAddr: repo.Addr(),
		Policy:   core.NewVCover(core.DefaultVCoverConfig()),
		Objects:  survey.Objects(),
		Capacity: setup.Capacity(),
		Scale:    netproto.DefaultScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	notices := func() float64 { return repo.Stats().Metric("delta_repo_notices_total") }
	heard := func() float64 { return m.Stats().Metric("delta_invalidation_notices_total") }
	before := notices()
	updates := 0
	for i := range setup.Events {
		switch e := &setup.Events[i]; e.Kind {
		case model.EventQuery:
			if _, err := query(m, *e.Query); err != nil {
				t.Fatalf("query %d: %v", e.Query.ID, err)
			}
			settleInterest(t, m)
		case model.EventUpdate:
			repo.ApplyUpdate(*e.Update)
			updates++
			eventually(t, fmt.Sprintf("update %d's notice", e.Update.ID), func() bool { return heard() == notices() })
			settleInterest(t, m)
		case model.EventBirth:
			if _, err := repo.AddObjects([]model.Birth{*e.Birth}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if updates == 0 {
		t.Fatal("the slice has no updates")
	}
	perUpdate := (notices() - before) / float64(updates)
	t.Logf("%d updates, %.4f notices per update", updates, perUpdate)
	if perUpdate > ceiling {
		t.Errorf("%.4f notices per update, above the ceiling of %.4f", perUpdate, ceiling)
	}
	if n := repo.DroppedInvalidations(); n != 0 {
		t.Errorf("%d notices dropped", n)
	}
}

// settleInterest waits until every registration and drop m has queued
// is installed at the repository. It registers an object beyond any
// universe, which the repository ignores but echoes behind them, and
// drops it again, so the next call registers it anew.
func settleInterest(t *testing.T, m *Middleware) {
	t.Helper()
	beyond := []model.ObjectID{math.MaxInt32}
	if !m.inv.AwaitConfirmed(beyond) {
		t.Fatal("the stream was lost")
	}
	m.inv.Unregister(beyond)
}
