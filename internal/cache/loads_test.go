package cache

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/obs"
	"github.com/deltacache/delta/internal/server"
	"github.com/deltacache/delta/internal/sim"
)

// startLoadRepo starts a repository over a 16-object survey.
func startLoadRepo(t *testing.T) (*server.Repository, *catalog.Survey) {
	t.Helper()
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 16
	scfg.TotalSize = 16 * cost.GB
	scfg.MinObjectSize = 100 * cost.MB
	scfg.MaxObjectSize = 4 * cost.GB
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
	t.Cleanup(func() { repo.Close() })
	return repo, survey
}

// newLoadCache builds a cache over objs against repo; decisions reach it
// either through policy or straight through commit.
func newLoadCache(t *testing.T, repo *server.Repository, policy core.Policy, objs []model.Object) *Middleware {
	t.Helper()
	m, err := New(Config{
		RepoAddr: repo.Addr(),
		Policy:   policy,
		Objects:  objs,
		Capacity: 64 * cost.GB,
		Scale:    netproto.DefaultScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// repoLoadRequests reads how many load requests the repository served
// from its delta_repo_load_seconds histogram.
func repoLoadRequests(t *testing.T, repo *server.Repository) int {
	t.Helper()
	var b bytes.Buffer
	if err := repo.Reg.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	families, err := obs.ParseExposition(&b)
	if err != nil {
		t.Fatal(err)
	}
	return int(families["delta_repo_load_seconds"].Samples["delta_repo_load_seconds_count"])
}

// shipAndLoad ships every query and loads whatever of B(q) it has not
// loaded before.
type shipAndLoad struct{ loaded map[model.ObjectID]bool }

func (p *shipAndLoad) Name() string { return "ship-and-load" }
func (p *shipAndLoad) Init([]model.Object, cost.Bytes) error {
	p.loaded = make(map[model.ObjectID]bool)
	return nil
}
func (p *shipAndLoad) OnUpdate(*model.Update) (core.Decision, error) { return core.Decision{}, nil }
func (p *shipAndLoad) OnQuery(q *model.Query) (core.Decision, error) {
	d := core.Decision{ShipQuery: true}
	for _, id := range q.Objects {
		if !p.loaded[id] {
			p.loaded[id] = true
			d.Load = append(d.Load, id)
		}
	}
	return d, nil
}

func query(m *Middleware, q model.Query) (netproto.QueryResultMsg, error) {
	reply := m.handleClientFrame(netproto.Frame{Type: netproto.MsgQuery, Body: netproto.QueryMsg{Query: q}})
	if e, ok := reply.Body.(netproto.ErrorMsg); ok {
		return netproto.QueryResultMsg{}, fmt.Errorf("%s", e.Message)
	}
	return reply.Body.(netproto.QueryResultMsg), nil
}

// TestDecisionLoadsOneRoundTrip: a shipped query whose decision loads
// four objects costs the repository one load request, and both ledgers
// carry the four objects' summed size.
func TestDecisionLoadsOneRoundTrip(t *testing.T) {
	repo, survey := startLoadRepo(t)
	m := newLoadCache(t, repo, &shipAndLoad{}, survey.Objects())
	objs := []model.ObjectID{3, 7, 1, 12}
	var want cost.Bytes
	for _, id := range objs {
		o, _ := survey.Object(id)
		want += o.Size
	}
	before := repoLoadRequests(t, repo)
	res, err := query(m, model.Query{ID: 1, Objects: objs, Cost: cost.MB, Time: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "repository" {
		t.Errorf("source = %q, want repository", res.Source)
	}
	if got := repoLoadRequests(t, repo) - before; got != 1 {
		t.Errorf("a decision loading %d objects made %d repository load requests, want 1", len(objs), got)
	}
	if got := m.Ledger().ObjectLoad; got != want {
		t.Errorf("cache load ledger = %v, want %v", got, want)
	}
	if got := repo.Ledger().ObjectLoad; got != want {
		t.Errorf("repository load ledger = %v, want %v", got, want)
	}
	resident := residents(m)
	for _, id := range objs {
		if !slices.Contains(resident, id) {
			t.Errorf("object %d not resident after its load", id)
		}
	}
}

// TestLoadRefusesAnotherSurvey: a cache built from another survey than
// its repository's (the same object count, another seed) fails its
// first load with an error naming the object and both descriptions of
// it, and its ledger charges nothing for it.
func TestLoadRefusesAnotherSurvey(t *testing.T) {
	repo, survey := startLoadRepo(t)
	scfg := catalog.DefaultConfig()
	scfg.Seed = 2
	scfg.NumObjects = 16
	scfg.TotalSize = 16 * cost.GB
	scfg.MinObjectSize = 100 * cost.MB
	scfg.MaxObjectSize = 4 * cost.GB
	other, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	const id = model.ObjectID(3)
	theirs, _ := survey.Object(id)
	mine, _ := other.Object(id)
	if theirs == mine {
		t.Fatalf("object %d is %+v in both surveys", id, mine)
	}
	m := newLoadCache(t, repo, &shipAndLoad{}, other.Objects())
	res, err := query(m, model.Query{ID: 1, Objects: []model.ObjectID{id}, Cost: cost.MB, Time: time.Second})
	if err == nil {
		t.Fatalf("a load over another survey's metadata succeeded: %+v", res)
	}
	for _, want := range []string{fmt.Sprintf("object %d", id), fmt.Sprintf("%+v", theirs), fmt.Sprintf("%+v", mine)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("load error %q does not name %s", err, want)
		}
	}
	if got := m.Ledger().ObjectLoad; got != 0 {
		t.Errorf("cache load ledger = %v after a refused load, want 0", got)
	}
}

// commit applies d to m's ground truth as the decision on a query of
// no objects (only the decision's own items apply): m's policy is a
// sim.Scripted, and d is its next decision. It fails the test on any
// violation. mu must be held.
func commit(t *testing.T, m *Middleware, d core.Decision) plan {
	t.Helper()
	script := m.cfg.Policy.(*sim.Scripted)
	script.Decisions = append(script.Decisions, d)
	step, err := m.shard.Query(&model.Query{})
	if err != nil || len(step.Violations) != 0 {
		t.Fatalf("commit %+v: %v, violations %v", d, err, step.Violations)
	}
	return m.planLocked(step)
}

// startPlanPerObject is the load path startPlan replaced, kept as the
// oracle of TestQuickBatchedLoadsMatchPerObjectFlights: one goroutine
// and one single-object round trip per led load.
func (m *Middleware) startPlanPerObject(ctx context.Context, p plan) {
	m.journalPlan(p)
	for _, l := range p.loads {
		if !l.leader {
			continue
		}
		go func() {
			err := m.loadOnePerObject(context.WithoutCancel(ctx), l.id)
			if err != nil {
				m.mu.Lock()
				m.shard.Unload(l.id)
				m.mu.Unlock()
			}
			m.loads.mu.Lock()
			delete(m.loads.inflight, l.id)
			m.loads.mu.Unlock()
			l.call.err = err
			close(l.call.done)
		}()
	}
}

func (m *Middleware) loadOnePerObject(ctx context.Context, id model.ObjectID) error {
	reply, err := m.repo.RoundTrip(ctx, netproto.Frame{
		Type: netproto.MsgLoadObject,
		Body: netproto.LoadObjectMsg{Objects: []model.ObjectID{id}},
	})
	if err != nil {
		return fmt.Errorf("load object %d: %w", id, err)
	}
	data, ok := reply.Body.(netproto.ObjectDataMsg)
	if !ok || len(data.Objects) != 1 {
		return fmt.Errorf("repository replied %s to load", reply.Type)
	}
	m.ledger.Charge(cost.ObjectLoad, data.Objects[0].Size)
	return nil
}

// randomRounds draws rounds of valid decisions over objects 1..n: each
// evicts some residents and loads some non-residents (an object evicted
// by the same decision included). An object loaded, evicted and loaded
// again within one round joins the first load's flight.
func randomRounds(rng *rand.Rand, n int) [][]core.Decision {
	resident := map[model.ObjectID]bool{}
	rounds := make([][]core.Decision, 1+rng.Intn(3))
	for r := range rounds {
		decisions := make([]core.Decision, 1+rng.Intn(6))
		for i := range decisions {
			var d core.Decision
			for id := model.ObjectID(1); id <= model.ObjectID(n); id++ {
				if resident[id] && rng.Intn(3) == 0 {
					d.Evict = append(d.Evict, id)
					resident[id] = false
				}
			}
			for id := model.ObjectID(1); id <= model.ObjectID(n); id++ {
				if !resident[id] && rng.Intn(4) == 0 {
					d.Load = append(d.Load, id)
					resident[id] = true
				}
			}
			rng.Shuffle(len(d.Load), func(a, b int) { d.Load[a], d.Load[b] = d.Load[b], d.Load[a] })
			decisions[i] = d
		}
		rounds[r] = decisions
	}
	return rounds
}

// runRounds commits each round's decisions in order, then runs their
// plans concurrently — start through start, finish through finishPlan
// — and waits before the next round. Committing a whole round first
// makes which loads lead and which join deterministic. It returns how
// many plans led at least one load.
func runRounds(t *testing.T, m *Middleware, rounds [][]core.Decision, start func(context.Context, plan)) int {
	t.Helper()
	leading := 0
	for _, decisions := range rounds {
		plans := make([]plan, len(decisions))
		m.mu.Lock()
		for i, d := range decisions {
			p := commit(t, m, d)
			plans[i] = p
			for _, l := range p.loads {
				if l.leader {
					leading++
					break
				}
			}
		}
		m.mu.Unlock()
		var wg sync.WaitGroup
		for _, p := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start(context.Background(), p)
				if err := m.finishPlan(context.Background(), p); err != nil {
					t.Errorf("finish plan: %v", err)
				}
			}()
		}
		wg.Wait()
	}
	return leading
}

// TestQuickBatchedLoadsMatchPerObjectFlights: over random rounds of
// concurrent decisions that share objects, one batched flight per
// decision leaves the same resident set, load ledger and DedupedLoads
// as one flight per object (the oracle), settles every flight, and
// costs the repository one load request per decision that leads a load.
func TestQuickBatchedLoadsMatchPerObjectFlights(t *testing.T) {
	repo, survey := startLoadRepo(t)
	var joined int64
	prop := func(seed int64) bool {
		rounds := randomRounds(rand.New(rand.NewSource(seed)), 12)
		charged := repo.Ledger().ObjectLoad
		oracle := newLoadCache(t, repo, &sim.Scripted{}, survey.Objects())
		runRounds(t, oracle, rounds, oracle.startPlanPerObject)
		oracleCharged := repo.Ledger().ObjectLoad - charged

		charged = repo.Ledger().ObjectLoad
		batched := newLoadCache(t, repo, &sim.Scripted{}, survey.Objects())
		requests := repoLoadRequests(t, repo)
		leading := runRounds(t, batched, rounds, batched.startPlan)
		requests = repoLoadRequests(t, repo) - requests
		batchedCharged := repo.Ledger().ObjectLoad - charged

		ok := true
		if b, o := residents(batched), residents(oracle); !slices.Equal(b, o) {
			t.Logf("seed %d: resident %v, oracle %v", seed, b, o)
			ok = false
		}
		if b, o := batched.Ledger(), oracle.Ledger(); b.ObjectLoad != o.ObjectLoad || b.Total() != o.Total() {
			t.Logf("seed %d: ledger %+v, oracle %+v", seed, b, o)
			ok = false
		}
		if b, o := batchedCharged, oracleCharged; b != o || b != batched.Ledger().ObjectLoad {
			t.Logf("seed %d: repository charged %v for the batched run, %v for the oracle", seed, b, o)
			ok = false
		}
		if b, o := batched.dedupLoads.Value(), oracle.dedupLoads.Value(); b != o {
			t.Logf("seed %d: deduped %d, oracle %d", seed, b, o)
			ok = false
		}
		joined += batched.dedupLoads.Value()
		if requests != leading {
			t.Logf("seed %d: %d repository load requests for %d leading decisions", seed, requests, leading)
			ok = false
		}
		for _, m := range []*Middleware{batched, oracle} {
			m.loads.mu.Lock()
			if len(m.loads.inflight) != 0 {
				t.Logf("seed %d: %d loads never settled", seed, len(m.loads.inflight))
				ok = false
			}
			m.loads.mu.Unlock()
		}
		batched.Close()
		oracle.Close()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
	if joined == 0 {
		t.Error("no trial had a decision join another's load")
	}
}

// TestFailedBatchRollsBackEveryLeader: one unknown object fails the
// whole batch, so every object the flight led loses its residency —
// the known ones too — and a decision that joined one of those loads
// fails with it. Nothing is charged on either side.
func TestFailedBatchRollsBackEveryLeader(t *testing.T) {
	repo, survey := startLoadRepo(t)
	// Object 99 is in the cache's universe but not the repository's.
	m := newLoadCache(t, repo, &sim.Scripted{}, append(survey.Objects(), model.Object{ID: 99, Size: cost.MB}))
	m.mu.Lock()
	lead := commit(t, m, core.Decision{Load: []model.ObjectID{1, 2, 99}})
	evict := commit(t, m, core.Decision{Evict: []model.ObjectID{2}})
	join := commit(t, m, core.Decision{Load: []model.ObjectID{2}})
	m.mu.Unlock()
	if join.loads[0].leader {
		t.Fatal("the reload of object 2 led a load instead of joining the in-flight one")
	}
	ctx := context.Background()
	if err := m.executePlan(ctx, evict); err != nil {
		t.Fatal(err)
	}
	m.startPlan(ctx, join) // leads nothing: starts no flight
	m.startPlan(ctx, lead)
	if err := m.finishPlan(ctx, lead); err == nil {
		t.Error("a batch naming an unknown object succeeded")
	}
	if err := m.finishPlan(ctx, join); err == nil {
		t.Error("a decision that joined a failed load succeeded")
	}
	if got := residents(m); len(got) != 0 {
		t.Errorf("resident after the failed batch: %v, want none", got)
	}
	if got := m.Ledger().ObjectLoad + repo.Ledger().ObjectLoad; got != 0 {
		t.Errorf("a failed batch charged %v", got)
	}
}

// residents reads m's resident set.
func residents(m *Middleware) []model.ObjectID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shard.Residents()
}

// deaf reports whether m is between a gap in its invalidation stream and
// the resume.
func deaf(m *Middleware) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shard.Deaf()
}

// TestCacheGapShipsThenResumesCold pins the gap window and what follows
// it. While the repository is down the cache ships every query rather
// than answer from a resident it can no longer vouch for (the ship
// fails: there is nothing to ship to). An update applied to the
// restarted repository before it listens reaches no subscriber, so the
// resumed cache has evicted every resident: its first tolerance-0
// query on the updated object does not answer from the pre-gap
// resident, and at-cache answers come back once it loads again.
func TestCacheGapShipsThenResumesCold(t *testing.T) {
	repo, survey := startLoadRepo(t)
	m, err := New(Config{
		RepoAddr: repo.Addr(),
		Policy:   core.NewVCover(core.DefaultVCoverConfig()),
		Objects:  survey.Objects(),
		Capacity: 64 * cost.GB,
		Scale:    netproto.DefaultScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	obj := survey.Objects()[0]
	// A query whose cost covers the object's load loads it; the next one
	// is answered from the cache.
	warm := func(at time.Duration) {
		t.Helper()
		q := model.Query{ID: model.QueryID(at), Objects: []model.ObjectID{obj.ID}, Cost: obj.Size, Tolerance: model.NoTolerance, Time: at}
		if _, err := query(m, q); err != nil {
			t.Fatal(err)
		}
		q.ID, q.Cost, q.Time = q.ID+1, cost.MB, at+time.Millisecond
		if res, err := query(m, q); err != nil || res.Source != "cache" {
			t.Fatalf("warm query at %v: source %q, err %v; want cache", at, res.Source, err)
		}
	}
	warm(time.Second)

	addr := repo.Addr()
	repo.Close()
	eventually(t, "the cache to notice its invalidation stream was gone", func() bool { return deaf(m) })
	fresh := model.Query{ID: 100, Objects: []model.ObjectID{obj.ID}, Cost: cost.MB, Tolerance: model.NoTolerance, Time: 2 * time.Second}
	before := m.Stats()
	if res, err := query(m, fresh); err == nil {
		t.Errorf("a query during the gap answered from %q with the repository down", res.Source)
	}
	const shipped = "delta_queries_shipped_total"
	if st := m.Stats(); st.Metric(shipped) != before.Metric(shipped)+1 || st.AtCache != before.AtCache {
		t.Errorf("during the gap: shipped %v -> %v, at-cache %d -> %d; want one ship, no at-cache answer",
			before.Metric(shipped), st.Metric(shipped), before.AtCache, st.AtCache)
	}

	repo, err = server.New(server.Config{Survey: survey, Addr: addr, Scale: netproto.DefaultScale()})
	if err != nil {
		t.Fatal(err)
	}
	repo.ApplyUpdate(model.Update{ID: 1, Object: obj.ID, Cost: cost.MB, Time: 3 * time.Second})
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	eventually(t, "the cache to resume", func() bool { return !deaf(m) })
	if got := residents(m); len(got) != 0 {
		t.Errorf("resumed with residents %v, want every resident evicted", got)
	}
	fresh.ID, fresh.Time = 101, 4*time.Second
	if res, err := query(m, fresh); err != nil || res.Source != "repository" {
		t.Errorf("first tolerance-0 query after the resume: source %q, err %v; want repository", res.Source, err)
	}
	atCache := m.Stats().AtCache
	warm(5 * time.Second)
	if got := m.Stats().AtCache; got <= atCache {
		t.Errorf("at-cache answers did not come back after the resume (%d -> %d)", atCache, got)
	}
	if got := m.violations.Value(); got != 0 {
		t.Errorf("%d decision violations", got)
	}
}
