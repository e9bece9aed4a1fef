package core_test

import (
	"reflect"
	"testing"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/experiments"
	"github.com/deltacache/delta/internal/model"
)

// TestVCoverIgnoresSeed: VCover's configuration decides nothing — its
// load manager draws nothing, and its eviction priority always counts
// hits — so two VCovers configured with different seeds and GDSF
// settings make the same decision on every event of a seeded trace, at
// the paper's cache and at one small enough to evict.
func TestVCoverIgnoresSeed(t *testing.T) {
	for _, frac := range []float64{0.3, 0.05} {
		s, err := experiments.NewSetup(experiments.Options{Scale: 0.05, Seed: 3, CacheFrac: frac})
		if err != nil {
			t.Fatal(err)
		}
		a := core.NewVCover(core.VCoverConfig{Seed: 1, GDSF: true})
		b := core.NewVCover(core.VCoverConfig{Seed: 2, GDSF: false})
		for _, p := range []*core.VCover{a, b} {
			if err := p.Init(s.Survey.Objects(), s.Capacity()); err != nil {
				t.Fatal(err)
			}
		}
		decide := func(p *core.VCover, e *model.Event) core.Decision {
			t.Helper()
			var d core.Decision
			var err error
			switch e.Kind {
			case model.EventQuery:
				d, err = p.OnQuery(e.Query)
			case model.EventUpdate:
				d, err = p.OnUpdate(e.Update)
			case model.EventBirth:
				d, err = p.AddObjects([]model.Object{e.Birth.Object})
			}
			if err != nil {
				t.Fatalf("event %d: %v", e.Seq, err)
			}
			return d
		}
		for i := range s.Events {
			e := &s.Events[i]
			if da, db := decide(a, e), decide(b, e); !reflect.DeepEqual(da, db) {
				t.Fatalf("cache %.0f%%, event %d: seed 1 with GDSF decided %+v, seed 2 without %+v", frac*100, e.Seq, da, db)
			}
		}
		if st := a.Stats(); st.ObjectsLoaded == 0 || frac < 0.3 && st.ObjectsEvicted == 0 {
			t.Errorf("cache %.0f%%: %+v; the trace must load, and evict at 5%%", frac*100, st)
		}
	}
}
