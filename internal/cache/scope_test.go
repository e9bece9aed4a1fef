package cache_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/experiments"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
	"github.com/deltacache/delta/internal/workload"
)

// countedBenefit is Benefit with the notices that reach it counted. It
// embeds *core.Benefit, so it is unscoped exactly as Benefit is.
type countedBenefit struct {
	*core.Benefit
	notices *atomic.Int64
}

func (p countedBenefit) OnUpdate(u *model.Update) (core.Decision, error) {
	p.notices.Add(1)
	return p.Benefit.OnUpdate(u)
}

// hiddenPolicy forwards a policy's methods the way bench/trace.go's
// timing decorator does: the core contract, growth and warmth included,
// and nothing else, so ScopedNotices is hidden.
type hiddenPolicy struct{ inner core.Policy }

func (p hiddenPolicy) Name() string { return p.inner.Name() }
func (p hiddenPolicy) Init(objects []model.Object, capacity cost.Bytes) error {
	return p.inner.Init(objects, capacity)
}
func (p hiddenPolicy) OnQuery(q *model.Query) (core.Decision, error)   { return p.inner.OnQuery(q) }
func (p hiddenPolicy) OnUpdate(u *model.Update) (core.Decision, error) { return p.inner.OnUpdate(u) }
func (p hiddenPolicy) AddObjects(objs []model.Object) (core.Decision, error) {
	return p.inner.AddObjects(objs)
}
func (p hiddenPolicy) Warm(ids []model.ObjectID) ([]model.ObjectID, error) {
	return p.inner.Warm(ids)
}

// ledgerBytes renders a ledger exactly, bytes and counts.
func ledgerBytes(l cost.Snapshot) string {
	return fmt.Sprintf("query %d B in %d, update %d B in %d, load %d B in %d",
		l.QueryShip, l.QueryShips, l.UpdateShip, l.UpdateShips, l.ObjectLoad, l.ObjectLoads)
}

// settle polls cond for up to 5 s.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// paperSlice is a small slice of the experiments' reference trace
// (seed 2) and a repository over its pristine survey.
func paperSlice(t *testing.T) (*experiments.Setup, *catalog.Survey, *server.Repository) {
	t.Helper()
	setup, err := experiments.NewSetup(experiments.Options{Scale: 0.004, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	survey, err := catalog.NewSurvey(setup.Survey.Config())
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
	t.Cleanup(func() { repo.Close() })
	return setup, survey, repo
}

// TestUnscopedNodesHearEveryNotice pins the safe default: a node whose
// policy does not declare scoped notices registers everything it owns
// (a standalone node its whole universe, a shard its owned set), so the
// repository withholds nothing it owns from it; the registration is
// what makes these nodes hear. A standalone Replica cache and a policy
// behind a decorator that hides the declaration each hear one notice per
// update; a Benefit shard hears every update on what it owns. The Replica and Benefit ledgers, on lockstep replays of seeded
// traces, are the ones measured before scoping existed.
func TestUnscopedNodesHearEveryNotice(t *testing.T) {
	metric := func(repo *server.Repository, name string) float64 { return repo.Stats().Metric(name) }
	for _, tc := range []struct {
		name   string
		policy func(setup *experiments.Setup) core.Policy
		ledger string // the lockstep ledger before scoping; empty: unpinned
	}{
		{"Replica", func(*experiments.Setup) core.Policy { return core.NewReplica() },
			"query 0 B in 0, update 1226478192 B in 1000, load 0 B in 0"},
		{"hidden VCover", func(*experiments.Setup) core.Policy {
			return hiddenPolicy{core.NewVCover(core.DefaultVCoverConfig())}
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setup, survey, repo := paperSlice(t)
			mw, err := cache.New(cache.Config{
				RepoAddr: repo.Addr(),
				Policy:   tc.policy(setup),
				Objects:  survey.Objects(),
				Capacity: setup.Capacity(),
				Scale:    netproto.DefaultScale(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer mw.Close()
			if err := mw.Start(); err != nil {
				t.Fatal(err)
			}
			cl, err := client.Dial(mw.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			updates := 0
			for i := range setup.Events {
				switch e := &setup.Events[i]; e.Kind {
				case model.EventQuery:
					if _, err := cl.Query(ctx, *e.Query); err != nil {
						t.Fatal(err)
					}
				case model.EventUpdate:
					repo.ApplyUpdate(*e.Update)
					updates++
					if tc.ledger != "" { // Replica ships each update on its notice
						settle(t, fmt.Sprintf("update %d's shipment", e.Update.ID), func() bool {
							return mw.Ledger().UpdateShips == int64(updates)
						})
					}
				}
			}
			if n, w := metric(repo, "delta_repo_notices_total"), metric(repo, "delta_repo_notices_filtered_total"); n != float64(updates) || w != 0 {
				t.Errorf("%d updates queued %v notices and withheld %v, want one each and none withheld", updates, n, w)
			}
			if got := ledgerBytes(mw.Ledger()); tc.ledger != "" && got != tc.ledger {
				t.Errorf("ledger %s, want %s", got, tc.ledger)
			}
		})
	}

	t.Run("Benefit shard", func(t *testing.T) {
		size := func(b cost.Bytes) cost.Bytes { return max(cost.Bytes(float64(b)*0.005), 1) }
		scfg := catalog.Config{
			Seed: 2, NumObjects: 8192, TotalSize: size(8 * cost.GB),
			MinObjectSize: size(64 * cost.KB), MaxObjectSize: size(16 * cost.MB),
			Blobs: 10, Uniform: true,
		}
		scratch, err := catalog.NewSurvey(scfg)
		if err != nil {
			t.Fatal(err)
		}
		wcfg := workload.DefaultConfig()
		wcfg.Seed = 2
		wcfg.NumQueries, wcfg.NumUpdates = 500, 500
		wcfg.GrowthObjects, wcfg.BirthBias = 20, 0.3
		gen, err := workload.NewGenerator(scratch, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		events, err := gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		survey, err := catalog.NewSurvey(scfg)
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
		heard := make([]atomic.Int64, 2)
		lc, err := cluster.SpawnLocal(cluster.LocalConfig{
			RepoAddr:      repo.Addr(),
			Objects:       survey.Objects(),
			Shards:        2,
			ShardCapacity: scfg.TotalSize * 15 / 100,
			Policy: func(s int) core.Policy {
				return countedBenefit{core.NewBenefit(core.BenefitConfig{Window: 40}), &heard[s]}
			},
			// Every query reaches a shard, whatever the router's cache
			// would have answered.
			ResultCacheSize: -1,
			Scale:           netproto.DefaultScale(),
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
		owed := make([]int64, 2)
		for i := range events {
			switch e := &events[i]; e.Kind {
			case model.EventQuery:
				if _, err := cl.Query(ctx, *e.Query); err != nil {
					t.Fatal(err)
				}
			case model.EventUpdate:
				s, ok := lc.Router.Ownership().Owner(e.Update.Object)
				if !ok {
					t.Fatalf("update %d on object %d, which no shard owns", e.Update.ID, e.Update.Object)
				}
				repo.ApplyUpdate(*e.Update)
				owed[s]++
				settle(t, fmt.Sprintf("update %d at shard %d", e.Update.ID, s), func() bool { return heard[s].Load() == owed[s] })
			case model.EventBirth:
				if _, err := cl.AddObjects(ctx, []model.Birth{*e.Birth}); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Shard ledgers, shard by shard; a notice's shipment may still be
		// in flight when the last event returns.
		ledgers := func() string {
			var out string
			for _, sh := range lc.Shards {
				out += "[" + ledgerBytes(sh.Ledger()) + "]"
			}
			return out
		}
		const want = "[query 240501935 B in 110, update 20210577 B in 115, load 3767984 B in 12]" +
			"[query 253017707 B in 111, update 2861953 B in 8, load 1824090 B in 12]"
		for deadline := time.Now().Add(5 * time.Second); ledgers() != want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := ledgers(); got != want {
			t.Errorf("shard ledgers %s, want %s", got, want)
		}
		if w := metric(repo, "delta_repo_notices_filtered_total"); w == 0 {
			t.Error("the router withheld nothing: the replay never scoped a stream")
		}
	})
}
