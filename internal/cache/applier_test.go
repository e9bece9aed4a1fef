package cache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
	"github.com/deltacache/delta/internal/sim"
	"github.com/deltacache/delta/internal/workload"
)

// TestFailedLoadDoesNotPoisonLaterQueries: a decision loads object 99,
// which the repository does not have, so the load fails and its flight
// unloads 99 again while the policy goes on believing it is resident.
// Query 2 then answers at the cache over object 1, which nothing ever
// loaded, and query 3 evicts 99. Both decisions are bad; the node
// applies them the way the simulator does — query 2 ships instead of
// answering from absent data, query 3's eviction is skipped — and
// counts two violations.
func TestFailedLoadDoesNotPoisonLaterQueries(t *testing.T) {
	repo, survey := startLoadRepo(t)
	policy := &sim.Scripted{Decisions: []core.Decision{
		{ShipQuery: true, Load: []model.ObjectID{99}},
		{},
		{ShipQuery: true, Evict: []model.ObjectID{99}},
	}}
	m := newLoadCache(t, repo, policy, append(survey.Objects(), model.Object{ID: 99, Size: cost.MB}))
	q := model.Query{ID: 1, Objects: []model.ObjectID{1}, Cost: cost.MB, Time: time.Second}
	if _, err := query(m, q); err == nil {
		t.Error("query 1 succeeded although the load its decision needs failed")
	}
	q.ID, q.Time = 2, 2*time.Second
	if res, err := query(m, q); err != nil || res.Source != "repository" {
		t.Errorf("query 2: source %q, err %v; want an answer from the repository", res.Source, err)
	}
	q.ID, q.Time = 3, 3*time.Second
	if _, err := query(m, q); err != nil {
		t.Errorf("query 3: %v", err)
	}
	if got := m.violations.Value(); got != 2 {
		t.Errorf("delta_decision_violations_total = %d, want 2", got)
	}
	if got := residents(m); len(got) != 0 {
		t.Errorf("resident after the failed load: %v, want none", got)
	}
}

// decisionLog records every decision a policy makes, in order.
type decisionLog struct {
	core.Policy
	mu  sync.Mutex
	log []loggedDecision
}

// loggedDecision is one policy call: the event it answered and the
// decision it returned.
type loggedDecision struct {
	Event    string
	Decision core.Decision
}

func (p *decisionLog) record(event string, d core.Decision, err error) (core.Decision, error) {
	p.mu.Lock()
	p.log = append(p.log, loggedDecision{event, d})
	p.mu.Unlock()
	return d, err
}

func (p *decisionLog) OnQuery(q *model.Query) (core.Decision, error) {
	d, err := p.Policy.OnQuery(q)
	return p.record(fmt.Sprintf("query %d", q.ID), d, err)
}

func (p *decisionLog) OnUpdate(u *model.Update) (core.Decision, error) {
	d, err := p.Policy.OnUpdate(u)
	return p.record(fmt.Sprintf("update %d", u.ID), d, err)
}

func (p *decisionLog) AddObjects(objs []model.Object) (core.Decision, error) {
	d, err := p.Policy.AddObjects(objs)
	return p.record(fmt.Sprintf("birth %d", objs[0].ID), d, err)
}

// Preload forwards the policy's starting set, if it has one, so a
// preloading policy starts live as it does in the simulator.
func (p *decisionLog) Preload() ([]model.ObjectID, bool) {
	if pre := core.OptionalOf(p.Policy).Preloader; pre != nil {
		return pre.Preload()
	}
	return nil, false
}

// scopedLog is a decisionLog that keeps its policy's ScopedNotices
// marker, so a scoped policy's node registers interest behind the log
// as it would bare.
type scopedLog struct{ *decisionLog }

func (scopedLog) ScopedNotices() {}

// live is the log as a node's policy: scoped when its policy is.
func (p *decisionLog) live() core.Policy {
	if core.OptionalOf(p.Policy).ScopedNotices {
		return scopedLog{p}
	}
	return p
}

// last returns the newest entry, if any.
func (p *decisionLog) last() (loggedDecision, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.log) == 0 {
		return loggedDecision{}, false
	}
	return p.log[len(p.log)-1], true
}

func (p *decisionLog) entries() []loggedDecision {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log
}

// eventually polls cond for up to 5s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestLiveDecisionsMatchSim drives one repository and one cache through
// a small generated trace, one event at a time: queries straight into
// the node, updates and births through the repository, each followed by
// a wait until the node's policy has seen the event and its I/O has
// settled. The node must make exactly the decisions sim.Run makes on
// the same trace, move the same bytes per mechanism, and neither side
// may report a violation.
//
// A scoped policy (VCover, NoCache) hears only the notices of objects it
// registered, so the repository withholds some updates, which the test
// reads off delta_repo_notices_filtered_total as each is applied. The
// live log must then equal the simulator's minus those updates' OnUpdate
// entries, and each of those entries must be the simulator's empty
// decision on an object it did not hold: the premise of scoping, checked
// against the full-stream simulator rather than assumed. Benefit and
// Replica, which are not scoped, must have nothing withheld.
func TestLiveDecisionsMatchSim(t *testing.T) {
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 24
	scfg.TotalSize = 240 * cost.MB
	scfg.MinObjectSize = 2 * cost.MB
	scfg.MaxObjectSize = 30 * cost.MB
	scratch, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig()
	wcfg.NumQueries = 200
	wcfg.NumUpdates = 200
	wcfg.GrowthObjects = 3
	wcfg.BirthBias = 0.3
	gen, err := workload.NewGenerator(scratch, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	capacity := scfg.TotalSize / 10

	for _, tc := range []struct {
		name   string
		policy func() core.Policy
	}{
		{"VCover", func() core.Policy { return core.NewVCover(core.DefaultVCoverConfig()) }},
		{"Benefit", func() core.Policy {
			return core.NewBenefit(core.BenefitConfig{Window: 40})
		}},
		{"Replica", func() core.Policy { return core.NewReplica() }},
		{"NoCache", func() core.Policy { return core.NewNoCache() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			survey, err := catalog.NewSurvey(scfg) // pristine: births arrive through the trace
			if err != nil {
				t.Fatal(err)
			}
			want := &decisionLog{Policy: tc.policy()}
			res, err := sim.Run(want, survey.Objects(), events, sim.Config{CacheCapacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("sim violations: %v", res.Violations)
			}
			if tc.name != "NoCache" && (res.Loads == 0 || res.UpdatesShipped == 0 || res.QueriesAtCache == 0) {
				t.Fatalf("the trace exercises too little: %+v", res)
			}

			repo, err := server.New(server.Config{Survey: survey, Scale: netproto.DefaultScale()})
			if err != nil {
				t.Fatal(err)
			}
			if err := repo.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { repo.Close() })
			got := &decisionLog{Policy: tc.policy()}
			m, err := New(Config{
				RepoAddr: repo.Addr(),
				Policy:   got.live(),
				Objects:  survey.Objects(),
				Capacity: capacity,
				Scale:    netproto.DefaultScale(),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })

			// The node charges a flight's loads once and an update
			// shipment once; settled counts these per decision.
			var loads, ships int64
			settled := func() bool {
				s := m.Ledger()
				return s.ObjectLoads == loads && s.UpdateShips == ships
			}
			filtered := func() float64 { return repo.Stats().Metric("delta_repo_notices_filtered_total") }
			withheld := map[string]model.ObjectID{} // event → its object
			for i := range events {
				e := &events[i]
				var event string
				switch e.Kind {
				case model.EventQuery:
					event = fmt.Sprintf("query %d", e.Query.ID)
					if _, err := query(m, *e.Query); err != nil {
						t.Fatalf("%s: %v", event, err)
					}
				case model.EventUpdate:
					event = fmt.Sprintf("update %d", e.Update.ID)
					before := filtered()
					repo.ApplyUpdate(*e.Update)
					if filtered() > before {
						withheld[event] = e.Update.Object
						continue
					}
				case model.EventBirth:
					event = fmt.Sprintf("birth %d", e.Birth.Object.ID)
					if _, err := repo.AddObjects([]model.Birth{*e.Birth}); err != nil {
						t.Fatal(err)
					}
				}
				eventually(t, event, func() bool {
					d, ok := got.last()
					return ok && d.Event == event
				})
				d, _ := got.last()
				if len(d.Decision.Load) > 0 {
					loads++
				}
				if len(d.Decision.ApplyUpdates) > 0 {
					ships++
				}
				eventually(t, event+"'s I/O", settled)
			}

			if scoped := core.OptionalOf(tc.policy()).ScopedNotices; scoped != (len(withheld) > 0) {
				t.Errorf("scoped %v, yet %d updates were withheld", scoped, len(withheld))
			}
			// The simulator's log less the withheld updates, each of which
			// it answered with nothing on an object it did not hold.
			var w []loggedDecision
			held := map[model.ObjectID]bool{}
			for _, d := range want.entries() {
				if obj, ok := withheld[d.Event]; ok {
					if !d.Decision.IsNoop() || held[obj] {
						t.Errorf("withheld %s on object %d: the simulator decided %+v, holding it: %v", d.Event, obj, d.Decision, held[obj])
					}
					continue
				}
				for _, id := range d.Decision.Evict {
					delete(held, id)
				}
				for _, id := range d.Decision.Load {
					held[id] = true
				}
				w = append(w, d)
			}
			if g := got.entries(); !reflect.DeepEqual(g, w) {
				for i := range min(len(g), len(w)) {
					if !reflect.DeepEqual(g[i], w[i]) {
						t.Fatalf("decision %d: live %+v, sim %+v", i, g[i], w[i])
					}
				}
				t.Fatalf("live made %d decisions, sim %d", len(g), len(w))
			}
			l := m.Ledger()
			if l.QueryShip != res.Ledger.QueryShip || l.UpdateShip != res.Ledger.UpdateShip || l.ObjectLoad != res.Ledger.ObjectLoad {
				t.Errorf("live ledger %+v, sim ledger %+v", l, res.Ledger)
			}
			if n := m.violations.Value(); n != 0 {
				t.Errorf("delta_decision_violations_total = %d, want 0", n)
			}
		})
	}
}
