package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// shardTrial is one run of TestQuickShardCore: a cluster shard's core
// driven alone, with no sockets, beside the repository the test keeps
// for it — every write applied, in order, the registrations in force,
// and what the shard fetched since: the updates it shipped, and for each
// object how many writes had been applied when its latest load left (a
// load carries every write applied before it).
type shardTrial struct {
	rng      *rand.Rand
	shard    *core.Shard
	objects  []model.Object // the universe, births included
	applied  []model.Update
	shipped  map[model.UpdateID]bool
	loadedAt map[model.ObjectID]int
	// registered passes the notices of what the shard registered: its
	// held residents from the start, then what it owns, as an unscoped
	// shard registers it. A scoped shard registers less, never an
	// object it holds.
	registered map[model.ObjectID]bool
	cut        bool // the stream is cut: a write reaches no one
	// warm gives every reshard a random warm list. A warm arrival is a
	// name only — the updates outstanding on it at its old holder do not
	// travel — so currency is checked only when warm is false.
	warm  bool
	epoch int
	// Counts over the trial, so the property can show what it exercised.
	checked, between, resumes int
}

// owe records what step fetched and fails on any violation.
func (tr *shardTrial) owe(what string, step core.Step, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if len(step.Violations) > 0 {
		return fmt.Errorf("%s: violations %v", what, step.Violations)
	}
	for _, o := range step.Load {
		tr.loadedAt[o.ID] = len(tr.applied)
	}
	for _, u := range step.Ship {
		tr.shipped[u.ID] = true
	}
	return nil
}

// register installs registrations of ids, or drops them.
func (tr *shardTrial) register(ids []model.ObjectID, on bool) {
	for _, id := range ids {
		tr.registered[id] = on
	}
}

func (tr *shardTrial) owned() []model.ObjectID { return tr.shard.Owned() }

// write applies the next write, on any object, at the repository, and
// delivers its notice if the stream is up and registers the object.
func (tr *shardTrial) write() error {
	obj := tr.objects[tr.rng.Intn(len(tr.objects))].ID
	n := len(tr.applied) + 1
	u := model.Update{ID: model.UpdateID(n), Object: obj, Cost: cost.Bytes(1+tr.rng.Intn(1000)) * cost.KB, Time: time.Duration(n) * time.Second}
	tr.applied = append(tr.applied, u)
	if tr.cut || !tr.registered[obj] {
		return nil
	}
	step, err := tr.shard.Notice(&u)
	return tr.owe(fmt.Sprintf("notice of update %d", u.ID), step, err)
}

// query asks about up to three owned objects and, when the answer comes
// from the cache and no warm arrival can be behind it, checks that it
// reflects every write on B(q) that t(q) requires.
func (tr *shardTrial) query(id model.QueryID) error {
	owned := tr.owned()
	if len(owned) == 0 {
		return nil
	}
	tr.rng.Shuffle(len(owned), func(i, j int) { owned[i], owned[j] = owned[j], owned[i] })
	q := model.Query{
		ID:      id,
		Objects: owned[:1+tr.rng.Intn(min(3, len(owned)))],
		Cost:    cost.Bytes(1+tr.rng.Intn(8000)) * cost.KB,
		Time:    time.Duration(len(tr.applied)) * time.Second,
	}
	if tr.rng.Intn(4) == 0 {
		q.Tolerance = time.Duration(tr.rng.Intn(5)) * time.Second
	}
	step, err := tr.shard.Query(&q)
	if err := tr.owe(fmt.Sprintf("query %d", q.ID), step, err); err != nil {
		return err
	}
	if step.ShipQuery || tr.warm {
		return nil
	}
	tr.checked++
	for i, u := range tr.applied {
		if slices.Contains(q.Objects, u.Object) && model.UpdateRequired(&u, &q) && !tr.shipped[u.ID] && tr.loadedAt[u.Object] <= i {
			return fmt.Errorf("query %d answered at the cache without update %d on object %d", q.ID, u.ID, u.Object)
		}
	}
	return nil
}

// birth publishes a new object, which the router grants this shard.
func (tr *shardTrial) birth() error {
	o := model.Object{ID: model.ObjectID(len(tr.objects) + 1), Size: cost.Bytes(1+tr.rng.Intn(4)) * cost.MB}
	step, fresh, err := tr.shard.Births([]model.Birth{{Object: o}})
	if err := tr.owe(fmt.Sprintf("birth of %d", o.ID), step, err); err != nil {
		return err
	}
	if len(fresh) != 1 {
		return fmt.Errorf("birth of %d adopted %d births", o.ID, len(fresh))
	}
	tr.objects = append(tr.objects, o)
	tr.register([]model.ObjectID{o.ID}, true)
	return nil
}

// reshard moves the shard to a random owned set: Gain (an install's
// preload included), the registration of what it gained and its echo,
// up to three writes and queries between the halves, Settle and the
// drop of what it lost.
func (tr *shardTrial) reshard(next func() model.QueryID) error {
	var owned, warm []model.ObjectID
	for _, o := range tr.objects {
		if tr.rng.Intn(2) == 0 {
			owned = append(owned, o.ID)
		}
		if tr.warm && tr.rng.Intn(3) == 0 {
			warm = append(warm, o.ID)
		}
	}
	if len(owned) == 0 {
		owned = append(owned, tr.objects[0].ID)
	}
	g, err := tr.shard.Gain(tr.epoch, owned, nil)
	if err := tr.owe(fmt.Sprintf("reshard %d gain", tr.epoch), g.Step, err); err != nil {
		return err
	}
	for _, o := range g.Start.Preload {
		tr.loadedAt[o.ID] = len(tr.applied)
	}
	tr.register(g.Gained, true)
	for range tr.rng.Intn(4) {
		tr.between++
		if tr.rng.Intn(2) == 0 {
			err = tr.write()
		} else {
			err = tr.query(next())
		}
		if err != nil {
			return err
		}
	}
	s, err := tr.shard.Settle(warm)
	if err := tr.owe(fmt.Sprintf("reshard %d settle", tr.epoch), s.Step, err); err != nil {
		return err
	}
	tr.register(s.Lost, false)
	tr.epoch++
	return nil
}

// resume ends a gap; the new stream carries what the shard registers
// again, its owned set.
func (tr *shardTrial) resume() error {
	tr.cut = false
	tr.resumes++
	step, err := tr.shard.Resume()
	if err := tr.owe("resume", step, err); err != nil {
		return err
	}
	tr.registered = map[model.ObjectID]bool{}
	tr.register(tr.owned(), true)
	return nil
}

// newShardTrial builds a cluster shard over a random universe, with a
// random policy and capacity fraction, that recovered a random set of
// residents in half the trials.
func newShardTrial(seed int64, warm bool) (*shardTrial, string) {
	rng := rand.New(rand.NewSource(seed))
	objects := make([]model.Object, 6+rng.Intn(10))
	for i := range objects {
		objects[i] = model.Object{ID: model.ObjectID(i + 1), Size: cost.Bytes(1+rng.Intn(4)) * cost.MB}
	}
	var policy core.Policy
	switch rng.Intn(3) {
	case 0:
		policy = core.NewVCover(core.VCoverConfig{Seed: rng.Int63(), GDSF: rng.Intn(2) == 0})
	case 1:
		policy = core.NewBenefit(core.BenefitConfig{Window: 2 + rng.Intn(20)})
	default:
		policy = core.NewReplica()
	}
	frac := 0.2 + 0.8*rng.Float64()
	resize := func(owned []model.Object) cost.Bytes {
		var total cost.Bytes
		for _, o := range owned {
			total += o.Size
		}
		return cost.Bytes(float64(total) * frac)
	}
	tr := &shardTrial{
		rng: rng,
		shard: core.NewShard(core.ShardConfig{
			Policy: policy, Objects: objects, Capacity: resize(objects), Resize: resize,
		}),
		objects:    objects,
		shipped:    map[model.UpdateID]bool{},
		loadedAt:   map[model.ObjectID]int{},
		registered: map[model.ObjectID]bool{},
		warm:       warm,
	}
	if rng.Intn(2) == 0 {
		var held []model.ObjectID
		for _, o := range objects {
			if rng.Intn(2) == 0 {
				held = append(held, o.ID)
			}
		}
		tr.shard.Recover(held)
		tr.register(held, true)
	}
	return tr, policy.Name()
}

// TestQuickShardCore drives a cluster shard's core alone through random
// interleavings of queries, notices, births, reshards — Gain and Settle
// with writes and queries between them — gaps and resumes, from a cold
// or a recovered start. The applier must report no violation, with or
// without warm lists; and with none, every answer from the cache must
// reflect every write on B(q) that t(q) requires — shipped, or older
// than the object's latest load — where the writes are the test's own
// list, so a notice the shard never heard counts too.
func TestQuickShardCore(t *testing.T) {
	const steps = 50
	var checked, between, resumes int
	prop := func(seed int64, warm bool) bool {
		tr, name := newShardTrial(seed, warm)
		var nextQuery model.QueryID
		next := func() model.QueryID { nextQuery++; return nextQuery }
		for i := range steps {
			var err error
			switch r := tr.rng.Intn(100); {
			case r < 35:
				err = tr.query(next())
			case r < 65:
				err = tr.write()
			case r < 80:
				err = tr.reshard(next)
			case r < 88:
				if tr.epoch > 0 {
					err = tr.birth()
				}
			case r < 93:
				tr.shard.Gap()
				tr.cut = true
			default:
				if tr.cut {
					err = tr.resume()
				}
			}
			if err != nil {
				t.Logf("seed %d, %s, warm %v, step %d: %v", seed, name, warm, i, err)
				return false
			}
		}
		checked += tr.checked
		between += tr.between
		resumes += tr.resumes
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 || between == 0 || resumes == 0 {
		t.Errorf("the trials checked %d cache answers, put %d events between reshard halves and resumed %d times; want each > 0",
			checked, between, resumes)
	}
}

// TestShardHitAllocs pins the hit path's allocations: an at-cache query
// over resident objects with no update outstanding allocates nothing,
// however many objects it touches.
func TestShardHitAllocs(t *testing.T) {
	shard, ids := residentShard(t, 1024)
	for _, n := range []int{8, 1000} {
		q := model.Query{Objects: ids[:n], Cost: cost.KB, Tolerance: model.NoTolerance}
		allocs := testing.AllocsPerRun(200, func() {
			q.ID++
			step, err := shard.Query(&q)
			if err != nil || step.ShipQuery || step.Stale || len(step.Violations) > 0 {
				t.Fatalf("query %d: %v; shipped %v, stale %v, violations %v", q.ID, err, step.ShipQuery, step.Stale, step.Violations)
			}
		})
		t.Logf("allocations per %d-object hit: %.0f", n, allocs)
		if allocs > 0 {
			t.Errorf("%.0f allocations per %d-object hit, budget 0", allocs, n)
		}
	}
}

// initRecorder is a policy that records what Init gave it.
type initRecorder struct {
	*core.NoCache
	universe []model.Object
	capacity cost.Bytes
}

func (p *initRecorder) Init(objects []model.Object, capacity cost.Bytes) error {
	p.universe, p.capacity = objects, capacity
	return p.NoCache.Init(objects, capacity)
}

// TestInitTakesTheRepositoryBirths: a standalone shard initializes over
// its configured objects plus the births its repository serves, skipping
// any it already knows, at the capacity Resize gives that universe, so a
// fresh start and a restart size the node alike; with no birth the
// configured capacity stands.
func TestInitTakesTheRepositoryBirths(t *testing.T) {
	objects := []model.Object{{ID: 1, Size: 10}, {ID: 2, Size: 10}}
	births := []model.Birth{{Object: objects[1]}, {Object: model.Object{ID: 3, Size: 20}}}
	half := func(owned []model.Object) cost.Bytes {
		var total cost.Bytes
		for _, o := range owned {
			total += o.Size
		}
		return total / 2
	}
	for _, tc := range []struct {
		births   []model.Birth
		universe []model.ObjectID
		capacity cost.Bytes
	}{
		{nil, []model.ObjectID{1, 2}, 7},
		{births, []model.ObjectID{1, 2, 3}, 20},
	} {
		p := &initRecorder{NoCache: core.NewNoCache()}
		shard := core.NewShard(core.ShardConfig{Policy: p, Objects: objects, Capacity: 7, Resize: half})
		if _, err := shard.Init(tc.births); err != nil {
			t.Fatal(err)
		}
		var got []model.ObjectID
		for _, o := range p.universe {
			got = append(got, o.ID)
		}
		if !slices.Equal(got, tc.universe) || p.capacity != tc.capacity {
			t.Errorf("Init(%d births) gave the policy %v at capacity %v, want %v at %v", len(tc.births), got, p.capacity, tc.universe, tc.capacity)
		}
		if _, ok := shard.Object(3); ok != (len(tc.births) > 0) {
			t.Errorf("Init(%d births): object 3 known = %v", len(tc.births), ok)
		}
	}
}
