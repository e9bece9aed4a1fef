package cache_test

import (
	"math/rand"
	"os"
	"path/filepath"
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

// persistSurveyConfig builds the equal-sized universe the persistence
// tests use: 1 GB objects so a query costing an object's size forces a
// deterministic VCover load.
func persistSurveyConfig(n int) catalog.Config {
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = n
	scfg.TotalSize = cost.Bytes(n) * cost.GB
	scfg.MinObjectSize = cost.GB
	scfg.MaxObjectSize = cost.GB
	return scfg
}

// startPersistRepo spins up a repository over a fresh survey and
// returns both.
func startPersistRepo(t *testing.T, n int) (*catalog.Survey, *server.Repository) {
	t.Helper()
	survey, err := catalog.NewSurvey(persistSurveyConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.PayloadScale{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	return survey, repo
}

// TestWarmRestartStandalone is the end-to-end durability contract on a
// standalone cache: warm state (residents and adopted births) written
// by one incarnation is recovered by the next, which answers from
// cache without reloading anything — including a newborn its static
// config has never heard of.
func TestWarmRestartStandalone(t *testing.T) {
	survey, repo := startPersistRepo(t, 16)
	base := slices.Clone(survey.Objects())
	mirror, err := catalog.NewSurvey(persistSurveyConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spawn := func() *cache.Middleware {
		t.Helper()
		mw, err := cache.New(cache.Config{
			RepoAddr: repo.Addr(),
			Policy:   core.NewVCover(core.DefaultVCoverConfig()),
			Objects:  base,
			Capacity: 20 * cost.GB,
			Scale:    netproto.PayloadScale{},
			// The test outlasts no snapshot period (node.DefaultInterval):
			// what it checks is the Close flush.
			DataDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mw.Start(); err != nil {
			t.Fatal(err)
		}
		return mw
	}

	mw1 := spawn()
	cl, err := client.Dial(mw1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Warm four base objects (query cost = object size forces the
	// load), then adopt a burst of births.
	for _, o := range base[:4] {
		if _, err := cl.Query(ctx, model.Query{
			Objects: []model.ObjectID{o.ID}, Cost: o.Size,
			Tolerance: model.AnyStaleness, Time: time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	births, err := mirror.GrowObjects(rand.New(rand.NewSource(9)), 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddObjects(ctx, births); err != nil {
		t.Fatal(err)
	}
	newborn := births[0].Object
	if _, err := cl.Query(ctx, model.Query{
		Objects: []model.ObjectID{newborn.ID}, Cost: newborn.Size,
		Tolerance: model.AnyStaleness, Time: 3 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	before := mw1.Stats()
	if len(before.Cached) == 0 {
		t.Fatal("nothing cached after the warm-up; the test would be vacuous")
	}
	cl.Close()
	if err := mw1.Close(); err != nil {
		t.Fatal(err)
	}

	mw2 := spawn()
	defer mw2.Close()
	after := mw2.Stats()
	if after.Metric("delta_recovered_warm") == 0 {
		t.Fatal("restart recovered no residents")
	}
	if !slices.Equal(after.Cached, before.Cached) {
		t.Errorf("recovered resident set %v, want %v", after.Cached, before.Cached)
	}
	cl2, err := client.Dial(mw2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	// A warm object answers at the cache with no reload; the newborn —
	// absent from mw2's static config — is queryable because recovery
	// restored the grown universe.
	res, err := cl2.Query(ctx, model.Query{
		Objects: []model.ObjectID{base[0].ID}, Cost: cost.MB,
		Tolerance: model.AnyStaleness, Time: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "cache" {
		t.Errorf("warm-recovered object answered from %q, want cache", res.Source)
	}
	res, err = cl2.Query(ctx, model.Query{
		Objects: []model.ObjectID{newborn.ID}, Cost: cost.MB,
		Tolerance: model.AnyStaleness, Time: time.Minute,
	})
	if err != nil {
		t.Fatalf("recovered newborn %d not queryable: %v", newborn.ID, err)
	}
	if res.Source != "cache" {
		t.Errorf("warm-recovered newborn answered from %q, want cache", res.Source)
	}
	if got := mw2.Ledger().ObjectLoad; got != 0 {
		t.Errorf("warm restart reloaded %v from the repository", got)
	}
}

// TestRestartedShardDropsUpdatedResidents: a shard restarted from disk
// holds its recovered residents for its first reshard, and one updated
// before that reshard leaves the carried set instead of arriving stale.
func TestRestartedShardDropsUpdatedResidents(t *testing.T) {
	survey, repo := startPersistRepo(t, 16)
	base := survey.Objects()
	all := make([]model.ObjectID, len(base))
	for i, o := range base {
		all[i] = o.ID
	}
	dir := t.TempDir()
	spawn := func() *cache.Middleware {
		t.Helper()
		mw, err := cache.New(cache.Config{
			RepoAddr: repo.Addr(),
			Policy:   core.NewVCover(core.DefaultVCoverConfig()),
			Objects:  base,
			Shard:    true,
			Capacity: 20 * cost.GB,
			Scale:    netproto.PayloadScale{},
			DataDir:  dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mw.Start(); err != nil {
			t.Fatal(err)
		}
		return mw
	}

	mw1 := spawn()
	if _, _, err := mw1.Reshard(0, all, nil, nil); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(mw1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range base[:4] {
		if _, err := cl.Query(ctx, model.Query{
			Objects: []model.ObjectID{o.ID}, Cost: o.Size,
			Tolerance: model.AnyStaleness, Time: time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	warm := mw1.Stats().Cached
	if !slices.Equal(warm, all[:4]) {
		t.Fatalf("cached before the restart = %v, want %v", warm, all[:4])
	}
	if err := mw1.Close(); err != nil {
		t.Fatal(err)
	}

	mw2 := spawn()
	defer mw2.Close()
	if got := mw2.Stats().Cached; !slices.Equal(got, warm) {
		t.Fatalf("restarted shard holds %v, want the recovered %v", got, warm)
	}
	repo.ApplyUpdate(model.Update{ID: 1, Object: warm[0], Cost: cost.MB, Time: 2 * time.Second})
	waitFor(t, func() bool { return !slices.Contains(mw2.Stats().Cached, warm[0]) })
	if _, _, err := mw2.Reshard(0, all, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := mw2.Stats().Cached; !slices.Equal(got, warm[1:]) {
		t.Errorf("first reshard carried %v, want %v (the updated object dropped)", got, warm[1:])
	}
}

// TestRestartFromTornJournal crashes a cache mid-write: the data
// directory is copied while the node is still serving (so the journal
// image may end mid-record), the tail is additionally truncated, and a
// fresh node must boot from the image without error and keep serving.
func TestRestartFromTornJournal(t *testing.T) {
	survey, repo := startPersistRepo(t, 16)
	base := slices.Clone(survey.Objects())
	liveDir, crashDir := t.TempDir(), t.TempDir()
	spawn := func(dir string) *cache.Middleware {
		t.Helper()
		mw, err := cache.New(cache.Config{
			RepoAddr: repo.Addr(),
			Policy:   core.NewVCover(core.DefaultVCoverConfig()),
			Objects:  base,
			Capacity: 20 * cost.GB,
			Scale:    netproto.PayloadScale{},
			DataDir:  dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mw.Start(); err != nil {
			t.Fatal(err)
		}
		return mw
	}

	mw1 := spawn(liveDir)
	defer mw1.Close()
	cl, err := client.Dial(mw1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, o := range base[:6] {
		if _, err := cl.Query(ctx, model.Query{
			Objects: []model.ObjectID{o.ID}, Cost: o.Size,
			Tolerance: model.AnyStaleness, Time: time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Take the crash image while the node is live (no Close flush), then
	// tear the journal tail to simulate a record cut mid-append.
	for _, name := range []string{"snapshot.dp", "journal.dp"} {
		raw, err := os.ReadFile(filepath.Join(liveDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "journal.dp" && len(raw) > 8 {
			raw = raw[:len(raw)-3]
		}
		if err := os.WriteFile(filepath.Join(crashDir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	mw2 := spawn(crashDir)
	defer mw2.Close()
	cl2, err := client.Dial(mw2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	// Whatever prefix survived must serve; at minimum the node is up
	// and every base object is queryable.
	for _, o := range base[:6] {
		if _, err := cl2.Query(ctx, model.Query{
			Objects: []model.ObjectID{o.ID}, Cost: cost.MB,
			Tolerance: model.AnyStaleness, Time: time.Minute,
		}); err != nil {
			t.Fatalf("object %d not queryable after torn-journal recovery: %v", o.ID, err)
		}
	}
}

// TestSnapshotSizeIndependentOfSurvey: a snapshot holds only what the
// node alone knows, its births and its residents, so two nodes with
// neither write the same snapshot over surveys sixteen times apart.
func TestSnapshotSizeIndependentOfSurvey(t *testing.T) {
	var sizes []int64
	for _, n := range []int{8192, 131072} {
		survey, repo := startPersistRepo(t, n)
		dir := t.TempDir()
		mw, err := cache.New(cache.Config{
			RepoAddr: repo.Addr(),
			Policy:   core.NewNoCache(),
			Objects:  survey.Objects(),
			Capacity: cost.GB,
			Scale:    netproto.PayloadScale{},
			DataDir:  dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mw.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, "snapshot.dp"))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	t.Logf("snapshot sizes: %d B and %d B", sizes[0], sizes[1])
	if sizes[0] != sizes[1] {
		t.Errorf("snapshot of a node with no births or residents is %d B over 8192 objects and %d B over 131072", sizes[0], sizes[1])
	}
}

// TestRestartedShardKeepsNewbornFromReshardMeta: a shard whose static
// config predates a birth learns the newborn's metadata from a reshard
// and holds it resident. Restarted from its data directory with the
// same config, it holds the newborn until its router's first reshard
// re-sends the metadata, and then adopts it warm.
func TestRestartedShardKeepsNewbornFromReshardMeta(t *testing.T) {
	survey, repo := startPersistRepo(t, 16)
	base := slices.Clone(survey.Objects())
	mirror, err := catalog.NewSurvey(persistSurveyConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	births, err := mirror.GrowObjects(rand.New(rand.NewSource(5)), 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.AddObjects(births); err != nil {
		t.Fatal(err)
	}
	newborn := births[0].Object
	all := []model.ObjectID{newborn.ID}
	for _, o := range base {
		all = append(all, o.ID)
	}
	slices.Sort(all)
	meta := []model.Object{newborn}
	dir := t.TempDir()
	spawn := func() *cache.Middleware {
		t.Helper()
		mw, err := cache.New(cache.Config{
			RepoAddr: repo.Addr(),
			Policy:   core.NewVCover(core.DefaultVCoverConfig()),
			Objects:  base,
			Shard:    true,
			Capacity: 20 * cost.GB,
			Scale:    netproto.PayloadScale{},
			DataDir:  dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mw
	}

	mw1 := spawn()
	if _, _, err := mw1.Reshard(0, all[:len(base)], nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mw1.Reshard(1, all, meta, []model.ObjectID{newborn.ID}); err != nil {
		t.Fatal(err)
	}
	if got := mw1.Stats().Cached; !slices.Equal(got, []model.ObjectID{newborn.ID}) {
		t.Fatalf("cached after the warm arrival = %v, want [%d]", got, newborn.ID)
	}
	if err := mw1.Close(); err != nil {
		t.Fatal(err)
	}

	mw2 := spawn()
	defer mw2.Close()
	if got := mw2.Stats().Cached; !slices.Equal(got, []model.ObjectID{newborn.ID}) {
		t.Fatalf("restarted shard holds %v, want the recovered [%d]", got, newborn.ID)
	}
	if _, _, err := mw2.Reshard(0, all, meta, nil); err != nil {
		t.Fatal(err)
	}
	st := mw2.Stats()
	if warm := st.Metric("delta_recovered_warm"); !slices.Equal(st.Cached, []model.ObjectID{newborn.ID}) || warm != 1 {
		t.Errorf("after the install: cached %v, recovered warm %v; want [%d] and 1", st.Cached, warm, newborn.ID)
	}
}
