package core_test

import (
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/experiments"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/workload"
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
	shard, ids := residentShard(b, 1024)
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

// BenchmarkShardCoreHitWide times the shard-core hit path per object on
// queries in the benchmark's all-sky shape: a complete level-5 survey
// (8,192 objects), every object resident, and the background queries of
// 500 objects or more a workload.Generator draws with
// BackgroundQueryFrac = 1 — the tail that carries most of all-sky's
// object visits. Each iteration answers one such query; ns/object is the
// time per object those queries touched.
func BenchmarkShardCoreHitWide(b *testing.B) {
	survey, err := catalog.NewSurvey(catalog.Config{
		Seed:          3,
		NumObjects:    8 << (2 * 5), // every level-5 trixel
		TotalSize:     8 * cost.GB,
		MinObjectSize: 64 * cost.KB,
		MaxObjectSize: 16 * cost.MB,
		Blobs:         10,
		Uniform:       true,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Seed = 5
	cfg.NumQueries, cfg.NumUpdates = 20_000, 0
	cfg.BackgroundQueryFrac = 1
	g, err := workload.NewGenerator(survey, cfg)
	if err != nil {
		b.Fatal(err)
	}
	events, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var wide []model.Query
	for _, e := range events {
		if e.Kind == model.EventQuery && len(e.Query.Objects) >= 500 {
			wide = append(wide, *e.Query)
		}
	}
	if len(wide) == 0 {
		b.Fatal("the trace has no query of 500 objects or more")
	}
	shard := adoptAll(b, survey.Objects())
	visits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := &wide[i%len(wide)]
		q.ID, q.Time = model.QueryID(i+1), time.Duration(i)*time.Millisecond
		step, err := shard.Query(q)
		if err != nil || step.ShipQuery || step.Stale || len(step.Violations) > 0 {
			b.Fatalf("query %d: %v; shipped %v, stale %v, violations %v", q.ID, err, step.ShipQuery, step.Stale, step.Violations)
		}
		visits += len(q.Objects)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visits), "ns/object")
}

// residentShard is a standalone VCover shard over n objects of 1 MB,
// IDs 1..n, every one resident; it returns the shard and the IDs.
func residentShard(tb testing.TB, n int) (*core.Shard, []model.ObjectID) {
	objects := make([]model.Object, n)
	ids := make([]model.ObjectID, n)
	for i := range objects {
		ids[i] = model.ObjectID(i + 1)
		objects[i] = model.Object{ID: ids[i], Size: cost.MB}
	}
	return adoptAll(tb, objects), ids
}

// adoptAll is a standalone VCover shard over objects whose capacity
// holds them all and that re-adopted every one from a recovery.
func adoptAll(tb testing.TB, objects []model.Object) *core.Shard {
	tb.Helper()
	ids := make([]model.ObjectID, len(objects))
	var total cost.Bytes
	for i, o := range objects {
		ids[i] = o.ID
		total += o.Size
	}
	shard := core.NewShard(core.ShardConfig{
		Policy:   core.NewVCover(core.DefaultVCoverConfig()),
		Objects:  objects,
		Capacity: total,
	})
	shard.Recover(ids)
	if start, err := shard.Init(nil); err != nil || start.Adopted != len(ids) {
		tb.Fatalf("init: %v; adopted %d of %d", err, start.Adopted, len(ids))
	}
	return shard
}
