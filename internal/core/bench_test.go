package core_test

import (
	"testing"
	"time"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/experiments"
	"github.com/deltacache/delta/internal/model"
)

// benchScale keeps a single policy run around 20k events.
const benchScale = 0.04

func benchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	s, err := experiments.NewSetup(experiments.Options{Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAblationGDSvsGDSF compares plain Greedy-Dual-Size against the
// frequency-aware variant in the LoadManager.
func BenchmarkAblationGDSvsGDSF(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		gdsRes, err := s.RunOne(core.NewVCover(core.VCoverConfig{Seed: s.Seed, GDSF: false}))
		if err != nil {
			b.Fatal(err)
		}
		gdsfRes, err := s.RunOne(core.NewVCover(core.VCoverConfig{Seed: s.Seed, GDSF: true}))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(gdsRes.Total().GBf(), "gdsGB")
			b.ReportMetric(gdsfRes.Total().GBf(), "gdsfGB")
		}
	}
}

// BenchmarkVCoverDecisions measures per-event decision latency of the
// core algorithm (both managers, steady state).
func BenchmarkVCoverDecisions(b *testing.B) {
	s := benchSetup(b)
	p := core.NewVCover(core.VCoverConfig{Seed: 1, GDSF: true})
	if err := p.Init(s.Survey.Objects(), s.Capacity()); err != nil {
		b.Fatal(err)
	}
	events := s.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &events[i%len(events)]
		var err error
		if e.Kind == model.EventQuery {
			// Fresh IDs per pass: the trace is replayed cyclically and
			// query/update identifiers must stay unique.
			q := *e.Query
			q.ID = model.QueryID(i + 1_000_000)
			_, err = p.OnQuery(&q)
		} else {
			u := *e.Update
			u.ID = model.UpdateID(i + 1_000_000)
			_, err = p.OnUpdate(&u)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBenefitDecisions measures the heuristic's per-event cost.
func BenchmarkBenefitDecisions(b *testing.B) {
	s := benchSetup(b)
	p := core.NewBenefit(core.DefaultBenefitConfig())
	if err := p.Init(s.Survey.Objects(), s.Capacity()); err != nil {
		b.Fatal(err)
	}
	events := s.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &events[i%len(events)]
		var err error
		if e.Kind == model.EventQuery {
			_, err = p.OnQuery(e.Query)
		} else {
			_, err = p.OnUpdate(e.Update)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardCoreHit times one shard-core query on the hit path, with
// no sockets: every object resident (VCover re-adopted them all from a
// recovery), no update required, and the answer from the cache.
func BenchmarkShardCoreHit(b *testing.B) {
	objects := make([]model.Object, 1024)
	ids := make([]model.ObjectID, len(objects))
	for i := range objects {
		ids[i] = model.ObjectID(i + 1)
		objects[i] = model.Object{ID: ids[i], Size: cost.MB}
	}
	shard := core.NewShard(core.ShardConfig{
		Policy:   core.NewVCover(core.DefaultVCoverConfig()),
		Objects:  objects,
		Capacity: cost.Bytes(len(objects)) * cost.MB,
	})
	shard.Recover(nil, ids)
	if start, err := shard.Init(); err != nil || start.Adopted != len(ids) {
		b.Fatalf("init: %v; adopted %d of %d", err, start.Adopted, len(ids))
	}
	q := model.Query{Objects: ids[:8], Cost: cost.KB, Tolerance: model.NoTolerance}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ID, q.Time = model.QueryID(i+1), time.Duration(i)*time.Millisecond
		step, err := shard.Query(&q)
		if err != nil || step.ShipQuery || step.Stale || len(step.Violations) > 0 {
			b.Fatalf("query %d: %v; shipped %v, stale %v, violations %v", q.ID, err, step.ShipQuery, step.Stale, step.Violations)
		}
	}
}
