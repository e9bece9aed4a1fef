package sim

import (
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/workload"
)

func bEvent(seq int64, id model.ObjectID, size cost.Bytes) model.Event {
	return model.Event{Seq: seq, Kind: model.EventBirth, Birth: &model.Birth{
		Object: model.Object{ID: id, Size: size},
		Time:   time.Duration(seq+1) * time.Second,
	}}
}

// TestGrowthTraceZeroViolations replays a handcrafted birth-then-query
// sequence through every policy: the universe grows mid-trace, later
// queries touch the newborns, and no policy may breach capacity or
// staleness.
func TestGrowthTraceZeroViolations(t *testing.T) {
	objects := twoObjects() // IDs 1, 2
	events := []model.Event{
		qEvent(0, 1, []model.ObjectID{1}, cost.GB, 0),
		bEvent(1, 3, 2*cost.GB),
		qEvent(2, 2, []model.ObjectID{3}, 4*cost.GB, 0), // cost covers the newborn's load
		uEvent(3, 1, 3, 10*cost.MB),
		bEvent(4, 4, cost.GB),
		qEvent(5, 3, []model.ObjectID{1, 3, 4}, cost.GB, model.AnyStaleness),
		qEvent(6, 4, []model.ObjectID{4}, 3*cost.GB, 0),
	}
	policies := []core.Policy{
		core.NewNoCache(),
		core.NewReplica(),
		core.NewVCover(core.DefaultVCoverConfig()),
		core.NewBenefit(core.BenefitConfig{Window: 2}),
		core.NewSOptimal(events),
	}
	for _, p := range policies {
		res, err := Run(p, objects, events, Config{CacheCapacity: 40 * cost.GB})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s violations: %v", p.Name(), res.Violations)
		}
		if res.Births != 2 {
			t.Errorf("%s counted %d births", p.Name(), res.Births)
		}
	}
}

// TestGrowthReplicaMirrorsBirths pins the Replica yardstick on growth:
// every newborn is loaded on publication (charged traffic) and its
// queries stay local, even when the grown universe exceeds the nominal
// capacity — the replica is as large as the (growing) server.
func TestGrowthReplicaMirrorsBirths(t *testing.T) {
	objects := twoObjects() // 10 GB + 5 GB (see sim_test.go)
	events := []model.Event{
		bEvent(0, 3, 8*cost.GB),
		qEvent(1, 1, []model.ObjectID{3}, cost.GB, 0),
		uEvent(2, 1, 3, 50*cost.MB),
		qEvent(3, 2, []model.ObjectID{1, 3}, cost.GB, 0),
	}
	// Capacity equals the base universe: the birth alone overflows it,
	// which the capacity-exempt mirror is allowed to do.
	res, err := Run(core.NewReplica(), objects, events, Config{CacheCapacity: 15 * cost.GB})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.QueriesAtCache != 2 || res.QueriesShipped != 0 {
		t.Errorf("replica shipped queries on a grown universe: %+v", res)
	}
	if res.Loads != 1 {
		t.Errorf("loads = %d, want 1 (the birth)", res.Loads)
	}
	if res.Ledger.ObjectLoad != 8*cost.GB {
		t.Errorf("birth load charged %v, want 8GB", res.Ledger.ObjectLoad)
	}
}

// TestGrowthDuplicateBirthIsStructural pins the contract that a trace
// re-publishing a live object is malformed input, not a violation.
func TestGrowthDuplicateBirthIsStructural(t *testing.T) {
	objects := twoObjects()
	events := []model.Event{bEvent(0, 1, cost.GB)}
	if _, err := Run(core.NewNoCache(), objects, events, Config{CacheCapacity: cost.GB}); err == nil {
		t.Fatal("birth of an existing object should be a structural error")
	}
}

// TestGrowthWorkloadThroughSimulator replays a generator-produced
// growth trace (universe +25%, biased access to newborns) through
// VCover and Benefit under the paper's 30% capacity, asserting zero
// violations — the satellite's end-to-end determinism check at the
// simulation layer.
func TestGrowthWorkloadThroughSimulator(t *testing.T) {
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 24
	scfg.TotalSize = 24 * cost.GB
	scfg.MinObjectSize = 200 * cost.MB
	scfg.MaxObjectSize = 2 * cost.GB
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig()
	wcfg.NumQueries = 3000
	wcfg.NumUpdates = 3000
	wcfg.GrowthObjects = 6
	wcfg.BirthBias = 0.3
	gen, err := workload.NewGenerator(survey, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	objects := survey.Objects()[:scfg.NumObjects] // universe as of t=0; births arrive via events
	capacity := cost.Bytes(float64(survey.TotalSize()) * 0.3)
	for _, p := range []core.Policy{
		core.NewVCover(core.DefaultVCoverConfig()),
		core.NewBenefit(core.DefaultBenefitConfig()),
	} {
		res, err := Run(p, objects, events, Config{CacheCapacity: capacity})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s violations: %v", p.Name(), res.Violations[:min(3, len(res.Violations))])
		}
		if res.Births != int64(wcfg.GrowthObjects) {
			t.Errorf("%s births = %d", p.Name(), res.Births)
		}
	}
}
