package cache_test

import (
	"slices"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

// startReshardable spins up a repository plus a cluster shard
// installed over the whole survey at replicated capacity, and warms
// every object into it.
func startReshardable(t *testing.T) (*catalog.Survey, *server.Repository, *cache.Middleware) {
	t.Helper()
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 16
	scfg.TotalSize = 16 * cost.GB
	scfg.MinObjectSize = cost.GB
	scfg.MaxObjectSize = cost.GB
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
	mw, err := cache.New(cache.Config{
		RepoAddr:        repo.Addr(),
		Policy:          core.NewVCover(core.DefaultVCoverConfig()),
		Objects:         survey.Objects(),
		Shard:           true,
		ReshardCapacity: cache.ReplicatedCapacity,
		Scale:           netproto.DefaultScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mw.Close() })
	all := make([]model.ObjectID, 0, survey.NumObjects())
	for _, o := range survey.Objects() {
		all = append(all, o.ID)
	}
	if _, _, err := mw.Reshard(0, all, nil, nil); err != nil {
		t.Fatal(err)
	}

	cl, err := client.Dial(mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, o := range survey.Objects() {
		if _, err := cl.Query(ctx, model.Query{
			Objects:   []model.ObjectID{o.ID},
			Cost:      o.Size,
			Tolerance: model.AnyStaleness,
			Time:      time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return survey, repo, mw
}

// TestReshardCarriesOwnedResidents checks a narrowing reshard: after
// resharding to a subset, still-owned residents stay warm, unowned ones
// are dropped, and queries enforce the new boundary.
func TestReshardCarriesOwnedResidents(t *testing.T) {
	survey, _, mw := startReshardable(t)
	all := survey.Objects()
	if got := len(mw.Stats().Cached); got != len(all) {
		t.Fatalf("warmup cached %d of %d objects", got, len(all))
	}

	keep := make([]model.ObjectID, 0, len(all)/2)
	for i, o := range all {
		if i%2 == 0 {
			keep = append(keep, o.ID)
		}
	}
	resident, dropped, err := mw.Reshard(1, keep, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resident != len(keep) || dropped != len(all)-len(keep) {
		t.Errorf("reshard kept %d, dropped %d; want %d kept, %d dropped",
			resident, dropped, len(keep), len(all)-len(keep))
	}
	st := mw.Stats()
	if !slices.Equal(st.Cached, keep) {
		t.Errorf("cached after reshard = %v, want %v", st.Cached, keep)
	}

	cl, err := client.Dial(mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// A still-owned object answers warm, locally.
	res, err := cl.Query(ctx, model.Query{
		Objects: []model.ObjectID{keep[0]}, Cost: cost.KB,
		Tolerance: model.AnyStaleness, Time: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "cache" {
		t.Errorf("owned resident answered from %s, want cache", res.Source)
	}
	// A dropped object is now outside the shard: the query is rejected
	// (a routing bug, not a degradable condition).
	var unowned model.ObjectID
	for _, o := range all {
		if !slices.Contains(keep, o.ID) {
			unowned = o.ID
			break
		}
	}
	if _, err := cl.Query(ctx, model.Query{
		Objects: []model.ObjectID{unowned}, Cost: cost.KB,
		Tolerance: model.AnyStaleness, Time: time.Minute,
	}); err == nil {
		t.Error("query for an unowned object succeeded after reshard")
	}
}

// TestReshardRejectsStaleEpoch pins the superseded-resize guard: a
// delayed reshard from an older epoch must not clobber the owned set
// a newer epoch installed (same-epoch retries stay allowed — widen
// and narrow share an epoch), except a new router's epoch-0 install.
func TestReshardRejectsStaleEpoch(t *testing.T) {
	survey, _, mw := startReshardable(t)
	all := survey.Objects()
	half := make([]model.ObjectID, 0, len(all)/2)
	for i, o := range all {
		if i%2 == 0 {
			half = append(half, o.ID)
		}
	}
	whole := make([]model.ObjectID, 0, len(all))
	for _, o := range all {
		whole = append(whole, o.ID)
	}
	if _, _, err := mw.Reshard(2, whole, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mw.Reshard(1, half, nil, nil); err == nil {
		t.Error("stale epoch-1 reshard applied after epoch 2")
	}
	if got := len(mw.Stats().Cached); got != len(all) {
		t.Errorf("stale reshard disturbed residency: %d cached, want %d", got, len(all))
	}
	if _, _, err := mw.Reshard(2, half, nil, nil); err != nil {
		t.Errorf("same-epoch reshard (narrow after widen) rejected: %v", err)
	}
	// Epoch 0 is a new router's install: it applies over any epoch.
	if _, _, err := mw.Reshard(0, whole, nil, nil); err != nil {
		t.Errorf("a new router's epoch-0 install rejected after epoch 2: %v", err)
	}
	if _, _, err := mw.Reshard(1, half, nil, nil); err != nil {
		t.Errorf("the new router's epoch-1 resize rejected: %v", err)
	}
}

// TestReshardRejectsBadInputs pins the failure modes that must leave
// the node untouched.
func TestReshardRejectsBadInputs(t *testing.T) {
	survey, _, mw := startReshardable(t)
	before := len(mw.Stats().Cached)
	if _, _, err := mw.Reshard(1, []model.ObjectID{9999}, nil, nil); err == nil {
		t.Error("reshard accepted an object outside the universe")
	}
	if _, _, err := mw.Reshard(1, nil, nil, nil); err == nil {
		t.Error("reshard accepted an empty owned set")
	}
	if got := len(mw.Stats().Cached); got != before {
		t.Errorf("failed reshards disturbed residency: %d → %d", before, got)
	}
	_ = survey
}

// TestReshardAdoptsWarmArrivals drives the warm half of a live resize
// over the wire: a cold shard receives a widen MsgReshard whose Warm
// list names objects it gains, adopts them through the policy's
// Warm (answering them from cache, counting them into MigratedIn once),
// ignores warm IDs it does not own, and — under capacity pressure —
// keeps its carried residents over new arrivals.
func TestReshardAdoptsWarmArrivals(t *testing.T) {
	survey, repo, _ := startReshardable(t)
	all := survey.Objects()
	// The shard owns the first half of the universe, cold, with room
	// for half of what it owns.
	var owned []model.ObjectID
	for _, o := range all[:len(all)/2] {
		owned = append(owned, o.ID)
	}
	outside := all[len(all)-1].ID
	dst, err := cache.New(cache.Config{
		RepoAddr:        repo.Addr(),
		Policy:          core.NewVCover(core.DefaultVCoverConfig()),
		Objects:         all,
		Shard:           true,
		Capacity:        survey.TotalSize() / 4,
		ReshardCapacity: cache.FractionalCapacity(0.5),
		Scale:           netproto.DefaultScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	sess, err := netproto.DialSession(dst.Addr(), "client", netproto.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	reshard := func(warm []model.ObjectID) netproto.ReshardMsg {
		t.Helper()
		reply, err := sess.RoundTrip(ctx, netproto.Frame{
			Type: netproto.MsgReshard,
			Body: netproto.ReshardMsg{Epoch: 1, Owned: owned, Warm: warm},
		})
		if err != nil {
			t.Fatal(err)
		}
		ack, ok := reply.Body.(netproto.ReshardMsg)
		if !ok {
			t.Fatalf("reshard replied %s", reply.Type)
		}
		return ack
	}

	// Half the owned set fills the capacity exactly; the unowned ID is
	// ignored.
	first := owned[:len(owned)/2]
	ack := reshard(append([]model.ObjectID{outside}, first...))
	if ack.Resident != len(first) {
		t.Errorf("reshard reports %d resident, want %d", ack.Resident, len(first))
	}
	st := dst.Stats()
	if !slices.Equal(st.Cached, first) {
		t.Errorf("cached after warm reshard = %v, want %v", st.Cached, first)
	}
	const migratedIn = "delta_migrated_in_total"
	if got := st.Metric(migratedIn); got != float64(len(first)) {
		t.Errorf("%s = %v, want %d", migratedIn, got, len(first))
	}
	cl, err := client.Dial(dst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Query(ctx, model.Query{
		Objects: []model.ObjectID{first[0]}, Cost: cost.KB,
		Tolerance: model.AnyStaleness, Time: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "cache" {
		t.Errorf("warm arrival answered from %s, want cache", res.Source)
	}

	// Re-sending the same reshard carries them; nothing counts twice.
	reshard(first)
	if got := dst.Stats().Metric(migratedIn); got != float64(len(first)) {
		t.Errorf("re-sent reshard counted warm arrivals again: %s = %v", migratedIn, got)
	}

	// The other half arrives while the carried residents fill the
	// capacity: carried state wins, the arrivals are declined.
	reshard(owned[len(owned)/2:])
	st = dst.Stats()
	if !slices.Equal(st.Cached, first) {
		t.Errorf("cached under capacity pressure = %v, want the carried %v", st.Cached, first)
	}
	if got := st.Metric(migratedIn); got != float64(len(first)) {
		t.Errorf("declined arrivals counted: %s = %v", migratedIn, got)
	}
}

// growOnly is VCover without core.Forgetter: its universe only grows.
type growOnly struct{ v *core.VCover }

func (p growOnly) Name() string { return p.v.Name() }
func (p growOnly) Init(objs []model.Object, capacity cost.Bytes) error {
	return p.v.Init(objs, capacity)
}
func (p growOnly) OnQuery(q *model.Query) (core.Decision, error)   { return p.v.OnQuery(q) }
func (p growOnly) OnUpdate(u *model.Update) (core.Decision, error) { return p.v.OnUpdate(u) }
func (p growOnly) AddObjects(objs []model.Object) (core.Decision, error) {
	return p.v.AddObjects(objs)
}
func (p growOnly) Warm(ids []model.ObjectID) ([]model.ObjectID, error) { return p.v.Warm(ids) }

// TestReshardWithoutForget: a shard whose policy cannot forget takes
// reshards that only gain objects at an unchanged capacity, and refuses
// one that would lose an object, changing nothing. A standalone cache
// refuses every reshard.
func TestReshardWithoutForget(t *testing.T) {
	survey, repo, _ := startReshardable(t)
	all := make([]model.ObjectID, 0, survey.NumObjects())
	for _, o := range survey.Objects() {
		all = append(all, o.ID)
	}
	start := func(shard bool) *cache.Middleware {
		mw, err := cache.New(cache.Config{
			RepoAddr: repo.Addr(),
			Policy:   growOnly{core.NewVCover(core.DefaultVCoverConfig())},
			Objects:  survey.Objects(),
			Shard:    shard,
			Capacity: survey.TotalSize() / 2,
			Scale:    netproto.DefaultScale(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mw.Close() })
		return mw
	}
	mw := start(true)
	if _, _, err := mw.Reshard(0, all[:8], nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mw.Reshard(1, all, nil, nil); err != nil {
		t.Errorf("a gain-only reshard at a fixed capacity failed: %v", err)
	}
	if _, _, err := mw.Reshard(2, all[:8], nil, nil); err == nil {
		t.Error("a reshard that loses objects applied to a policy that cannot forget")
	}
	if err := mw.Start(); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(ctx, model.Query{
		Objects: []model.ObjectID{all[len(all)-1]}, Cost: cost.KB,
		Tolerance: model.AnyStaleness, Time: time.Minute,
	}); err != nil {
		t.Errorf("the refused reshard changed the owned set: %v", err)
	}
	if _, _, err := mw.Reshard(1, all, nil, nil); err != nil {
		t.Errorf("the refused reshard moved the epoch: %v", err)
	}
	if _, _, err := start(false).Reshard(0, all, nil, nil); err == nil {
		t.Error("a standalone cache took a reshard")
	}
}
