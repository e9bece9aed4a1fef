package cluster_test

import (
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/obs"
	"github.com/deltacache/delta/internal/server"
	"github.com/deltacache/delta/internal/workload"
)

// budgetSurvey is the benchmark's cluster survey — an 8,192-object
// uniform level-5 mesh — with object sizes shrunk by scale, as the
// benchmark shrinks them with its trace.
func budgetSurvey(scale float64) catalog.Config {
	size := func(b cost.Bytes) cost.Bytes { return max(cost.Bytes(float64(b)*scale), 1) }
	return catalog.Config{
		Seed: 2, NumObjects: 8192, TotalSize: size(8 * cost.GB),
		MinObjectSize: size(64 * cost.KB), MaxObjectSize: size(16 * cost.MB),
		Blobs: 10, Uniform: true,
	}
}

// TestNoticeBudget counts what the repository queues per update on
// seeded slices of two cluster workloads, replayed in lockstep through
// a 2-shard VCover cluster: every query answered, so its objects
// confirmed at the router, before the next event. Without interest
// scoping every update costs 2 notices, one to the router and one to the
// owning shard; scoped, the router hears only the objects its queries
// named, and a shard only those it holds: a load registers what it
// loads, and an eviction drops it. On flash-crowd no update lands on a
// queried object. On growing-sky most do: the router hears every one
// on an object a query named, the shards only those on what they hold.
//
// Each count is a ceiling, pinned per node kind from the nodes' own
// delta_invalidation_notices_total once every queued notice is handled.
// growing-sky read 2.0 unscoped, 378/500 when a shard registered what
// its fragments named, and 328/500 since a load registers what it
// loads: 189/500 at the router and 139/500 at the shards. The shards
// read 140/500 since VCover buys loads with a per-object credit: they
// hold different residents. A drop may
// still be on the wire when the next update is applied, which could
// only pass more; the counts repeated exactly over eight runs under
// -race.
func TestNoticeBudget(t *testing.T) {
	const scale = 0.005
	for _, tc := range []struct {
		name           string
		router, shards float64 // ceilings, notices per update
		events         func(*catalog.Survey) ([]model.Event, error)
	}{
		{"flash-crowd", 0, 0, func(s *catalog.Survey) ([]model.Event, error) {
			sc, err := workload.Lookup("flash-crowd")
			if err != nil {
				return nil, err
			}
			return sc.Events(s, workload.Options{Seed: 2, Queries: 1500, Updates: 600})
		}},
		{"growing-sky", 189.0 / 500, 140.0 / 500, func(s *catalog.Survey) ([]model.Event, error) {
			cfg := workload.DefaultConfig()
			cfg.Seed = 2
			cfg.NumQueries, cfg.NumUpdates = 500, 500
			cfg.GrowthObjects, cfg.BirthBias = 20, 0.3
			gen, err := workload.NewGenerator(s, cfg)
			if err != nil {
				return nil, err
			}
			return gen.Generate()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scfg := budgetSurvey(scale)
			scratch, err := catalog.NewSurvey(scfg)
			if err != nil {
				t.Fatal(err)
			}
			events, err := tc.events(scratch)
			if err != nil {
				t.Fatal(err)
			}
			survey, err := catalog.NewSurvey(scfg) // pristine: births arrive through the trace
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
			lc, err := cluster.SpawnLocal(cluster.LocalConfig{
				RepoAddr:      repo.Addr(),
				Objects:       survey.Objects(),
				Shards:        2,
				ShardCapacity: scfg.TotalSize * 15 / 100,
				Policy:        func(int) core.Policy { return core.NewVCover(core.DefaultVCoverConfig()) },
				Scale:         netproto.DefaultScale(),
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

			notices := func() float64 { return repo.Stats().Metric("delta_repo_notices_total") }
			before := notices()
			updates := 0
			for i := range events {
				switch e := &events[i]; e.Kind {
				case model.EventQuery:
					if _, err := cl.Query(ctx, *e.Query); err != nil {
						t.Fatalf("query %d: %v", e.Query.ID, err)
					}
				case model.EventUpdate:
					repo.ApplyUpdate(*e.Update)
					updates++
				case model.EventBirth:
					if _, err := cl.AddObjects(ctx, []model.Birth{*e.Birth}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if updates == 0 {
				t.Fatal("the slice has no updates")
			}
			var router, shards float64
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				router, shards = heard(lc.Router.Reg), 0
				for _, s := range lc.Shards {
					shards += heard(s.Reg)
				}
				if router+shards == notices()-before {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%v notices queued, %v handled", notices()-before, router+shards)
				}
			}
			router, shards = router/float64(updates), shards/float64(updates)
			t.Logf("%d updates, %.4f notices per update at the router, %.4f at the shards", updates, router, shards)
			if router > tc.router || shards > tc.shards {
				t.Errorf("%s: %.4f notices per update at the router and %.4f at the shards, above the ceilings of %.4f and %.4f",
					tc.name, router, shards, tc.router, tc.shards)
			}
			if n := repo.DroppedInvalidations(); n != 0 {
				t.Errorf("%d notices dropped", n)
			}
		})
	}
}

// heard reads a node's delta_invalidation_notices_total.
func heard(reg *obs.Registry) float64 {
	for _, s := range reg.Values() {
		if s.Name == "delta_invalidation_notices_total" {
			return s.Value
		}
	}
	return 0
}

// growingSkySlice is the seeded growing-sky slice both budget tests
// replay: 500 queries, 500 updates and 20 births on budgetSurvey.
func growingSkySlice(s *catalog.Survey) ([]model.Event, error) {
	cfg := workload.DefaultConfig()
	cfg.Seed = 2
	cfg.NumQueries, cfg.NumUpdates = 500, 500
	cfg.GrowthObjects, cfg.BirthBias = 20, 0.3
	gen, err := workload.NewGenerator(s, cfg)
	if err != nil {
		return nil, err
	}
	return gen.Generate()
}

// TestResizeNoticeBudget replays the growing-sky slice in lockstep
// through a cluster that resizes live between thirds of it: 2 shards,
// then 3, then 2 again. It reads the repository's notice counters after
// each third, for a cluster of unscoped shards (Benefit, which registers
// and hears what it owns) and one of scoped shards (VCover), and pins
// each reading as a ceiling. The stream carries one filter, the
// subscriber's registrations, so every update is either queued or
// counted withheld once per subscriber: the two counts sum to the
// updates times the subscribers.
//
// The Benefit ceilings are the values measured under the owned-set
// filter the registrations replaced. The VCover ones fell twice: when a
// scoped shard began to drop the registrations of what a resize takes
// from it (362 → 354 after the last third), and when registration moved
// from first sight to the load (12, 116, 354 → 11, 104, 328): a scoped
// shard now hears only what it holds. The last rose to 329 when VCover
// began to buy loads with a per-object credit: the shards hold
// different residents. The withheld ceilings rose when
// the owned-set filter went: it withheld the notices of other shards'
// objects without counting them. The VCover readings repeated exactly
// over eight runs under -race. Only the Benefit cluster's withheld
// readings are pinned: a scoped shard's drops go out without waiting
// for their echo, and an update applied while one is on the wire moves
// a notice from withheld to queued. The sum holds either way.
func TestResizeNoticeBudget(t *testing.T) {
	const scale = 0.005
	type reading struct{ notices, filtered float64 }
	for _, tc := range []struct {
		name        string
		policy      func(int) core.Policy
		ceilings    [3]reading // cumulative, after each third
		pinWithheld bool
	}{
		{"Benefit", func(int) core.Policy { return core.NewBenefit(core.BenefitConfig{Window: 40}) },
			[3]reading{{173, 328}, {399, 766}, {689, 977}}, true},
		{"VCover", func(int) core.Policy { return core.NewVCover(core.DefaultVCoverConfig()) },
			[3]reading{{11, 490}, {104, 1061}, {329, 1337}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scfg := budgetSurvey(scale)
			scratch, err := catalog.NewSurvey(scfg)
			if err != nil {
				t.Fatal(err)
			}
			events, err := growingSkySlice(scratch)
			if err != nil {
				t.Fatal(err)
			}
			survey, err := catalog.NewSurvey(scfg) // pristine: births arrive through the trace
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
			lc, err := cluster.SpawnLocal(cluster.LocalConfig{
				RepoAddr:      repo.Addr(),
				Objects:       survey.Objects(),
				Shards:        2,
				ShardCapacity: scfg.TotalSize * 15 / 100,
				Policy:        tc.policy,
				Scale:         netproto.DefaultScale(),
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

			metric := func(name string) float64 { return repo.Stats().Metric(name) }
			third := (len(events) + 2) / 3
			owed := 0.0 // updates times subscribers
			for phase, shards := range []int{2, 3, 2} {
				if phase > 0 {
					if _, err := lc.Resize(ctx, shards, false); err != nil {
						t.Fatalf("resize to %d shards: %v", shards, err)
					}
				}
				// A released shard's stream ends once the repository reads
				// its close.
				for deadline := time.Now().Add(5 * time.Second); repo.Subscribers() != shards+1; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d subscribers on %d shards and a router", repo.Subscribers(), shards)
					}
				}
				for i := phase * third; i < min((phase+1)*third, len(events)); i++ {
					switch e := &events[i]; e.Kind {
					case model.EventQuery:
						if _, err := cl.Query(ctx, *e.Query); err != nil {
							t.Fatalf("query %d: %v", e.Query.ID, err)
						}
					case model.EventUpdate:
						repo.ApplyUpdate(*e.Update)
						owed += float64(shards + 1)
					case model.EventBirth:
						if _, err := cl.AddObjects(ctx, []model.Birth{*e.Birth}); err != nil {
							t.Fatal(err)
						}
					}
				}
				got := reading{metric("delta_repo_notices_total"), metric("delta_repo_notices_filtered_total")}
				ceil := tc.ceilings[phase]
				t.Logf("after third %d on %d shards: %v notices, %v withheld", phase+1, shards, got.notices, got.filtered)
				if got.notices > ceil.notices {
					t.Errorf("after third %d: %v notices, above the ceiling of %v", phase+1, got.notices, ceil.notices)
				}
				if tc.pinWithheld && got.filtered > ceil.filtered {
					t.Errorf("after third %d: %v notices withheld, above the ceiling of %v", phase+1, got.filtered, ceil.filtered)
				}
				if got.notices+got.filtered != owed {
					t.Errorf("after third %d: %v notices queued and %v withheld, want %v in all", phase+1, got.notices, got.filtered, owed)
				}
			}
			if n := repo.DroppedInvalidations(); n != 0 {
				t.Errorf("%d notices dropped", n)
			}
		})
	}
}
