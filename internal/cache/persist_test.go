package cache_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/persist"
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

// TestSnapshotSizeIndependentOfSurvey: a cache's snapshot holds only
// what the node alone knows, its residents (the births are the
// repository's), so two nodes with none write the same snapshot over
// surveys sixteen times apart.
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

// persistNode starts a VCover cache over base and dir against the
// repository at repoAddr: a standalone, or a shard awaiting its first
// reshard.
func persistNode(t *testing.T, repoAddr, dir string, base []model.Object, shard bool) *cache.Middleware {
	t.Helper()
	mw, err := cache.New(cache.Config{
		RepoAddr: repoAddr,
		Policy:   core.NewVCover(core.DefaultVCoverConfig()),
		Objects:  base,
		Shard:    shard,
		Capacity: 20 * cost.GB,
		Scale:    netproto.PayloadScale{},
		DataDir:  dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.Start(); err != nil {
		mw.Close()
		t.Fatal(err)
	}
	return mw
}

// recoverDir reads back what a data directory holds.
func recoverDir(t *testing.T, dir string) *persist.State {
	t.Helper()
	store, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	st, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatalf("%s holds nothing to recover", dir)
	}
	return st
}

// TestRestartFollowsTheRepositoryUniverse: the repository is the one
// durable copy of the universe. A standalone cache adopts a birth and
// loads it, and is restarted from its data directory against a fresh
// repository that never heard of that birth: the newborn must not come
// back resident or answer from the cache, while the base residents
// still rejoin warm.
func TestRestartFollowsTheRepositoryUniverse(t *testing.T) {
	survey, repo := startPersistRepo(t, 16)
	base := slices.Clone(survey.Objects())
	mirror, err := catalog.NewSurvey(persistSurveyConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mw1 := persistNode(t, repo.Addr(), dir, base, false)
	cl, err := client.Dial(mw1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	births, err := mirror.GrowObjects(rand.New(rand.NewSource(9)), 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddObjects(ctx, births); err != nil {
		t.Fatal(err)
	}
	newborn := births[0].Object
	for _, o := range []model.Object{base[0], newborn} {
		if _, err := cl.Query(ctx, model.Query{
			Objects: []model.ObjectID{o.ID}, Cost: o.Size,
			Tolerance: model.AnyStaleness, Time: 3 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := []model.ObjectID{base[0].ID, newborn.ID}
	if got := mw1.Stats().Cached; !slices.Equal(got, want) {
		t.Fatalf("cached before the restart = %v, want %v", got, want)
	}
	cl.Close()
	if err := mw1.Close(); err != nil {
		t.Fatal(err)
	}

	_, fresh := startPersistRepo(t, 16) // the same survey, without the birth
	mw2 := persistNode(t, fresh.Addr(), dir, base, false)
	defer mw2.Close()
	if got := mw2.Stats().Cached; !slices.Equal(got, want[:1]) {
		t.Errorf("restarted against a repository without object %d: cached %v, want %v", newborn.ID, got, want[:1])
	}
	cl2, err := client.Dial(mw2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	res, err := cl2.Query(ctx, model.Query{
		Objects: []model.ObjectID{newborn.ID}, Cost: cost.MB,
		Tolerance: model.AnyStaleness, Time: time.Minute,
	})
	if err == nil {
		t.Fatalf("object %d, which the repository does not hold, answered from %q", newborn.ID, res.Source)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("unknown object %d", newborn.ID)) {
		t.Errorf("query on object %d refused with %v, want unknown object", newborn.ID, err)
	}
	if res, err := cl2.Query(ctx, model.Query{
		Objects: []model.ObjectID{base[0].ID}, Cost: cost.MB,
		Tolerance: model.AnyStaleness, Time: time.Minute,
	}); err != nil || res.Source != "cache" {
		t.Errorf("warm base object answered from %q, %v; want cache", res.Source, err)
	}
}

// TestCachePersistsNoBirths: a cache's data directory holds residents
// only. A standalone adopts births by publish and by stream
// announcement, and a shard by grant; neither node's recovered state
// holds a birth.
func TestCachePersistsNoBirths(t *testing.T) {
	survey, repo := startPersistRepo(t, 16)
	base := slices.Clone(survey.Objects())
	mirror, err := catalog.NewSurvey(persistSurveyConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	births, err := mirror.GrowObjects(rand.New(rand.NewSource(3)), 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	load := func(addr string, o model.Object) {
		t.Helper()
		cl, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Query(ctx, model.Query{
			Objects: []model.ObjectID{o.ID}, Cost: o.Size,
			Tolerance: model.AnyStaleness, Time: 3 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}

	standaloneDir, shardDir := t.TempDir(), t.TempDir()
	standalone := persistNode(t, repo.Addr(), standaloneDir, base, false)
	cl, err := client.Dial(standalone.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cl.AddObjects(ctx, births[:1]); err != nil || n != 1 {
		t.Fatalf("publish through the cache = %d, %v", n, err)
	}
	cl.Close()
	if _, err := repo.AddObjects(births[1:2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return standalone.Stats().Metric("delta_objects_born_total") == 2 })
	load(standalone.Addr(), births[1].Object)

	shard := persistNode(t, repo.Addr(), shardDir, base, true)
	all := make([]model.ObjectID, len(base))
	for i, o := range base {
		all[i] = o.ID
	}
	if _, _, err := shard.Reshard(0, all, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.AddObjects(births[2:]); err != nil {
		t.Fatal(err)
	}
	sess, err := netproto.DialSession(shard.Addr(), "client", netproto.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := sess.RoundTrip(ctx, netproto.Frame{
		Type: netproto.MsgBirthGrant,
		Body: netproto.BirthGrantMsg{Births: births[2:]},
	})
	sess.Close()
	if grant, ok := reply.Body.(netproto.BirthGrantMsg); err != nil || !ok || grant.Accepted != 1 {
		t.Fatalf("grant replied %+v, %v; want one birth accepted", reply.Body, err)
	}
	load(shard.Addr(), births[2].Object)

	for _, n := range []struct {
		name    string
		mw      *cache.Middleware
		dir     string
		newborn model.ObjectID
	}{
		{"standalone", standalone, standaloneDir, births[1].Object.ID},
		{"shard", shard, shardDir, births[2].Object.ID},
	} {
		// The journal as the node left it while serving, which holds the
		// newborn's admission, then the snapshot Close lands.
		if records := n.mw.Stats().Metric("delta_journal_records"); records == 0 {
			t.Fatalf("%s journaled nothing; the check would be vacuous", n.name)
		}
		if st := recoverDir(t, n.dir); len(st.Births) != 0 || !slices.Contains(st.Resident, n.newborn) {
			t.Errorf("%s journaled births %v and residents %v; want no birth and %d resident", n.name, st.Births, st.Resident, n.newborn)
		}
		if err := n.mw.Close(); err != nil {
			t.Fatal(err)
		}
		st := recoverDir(t, n.dir)
		if len(st.Births) != 0 {
			t.Errorf("%s persisted births %v", n.name, st.Births)
		}
		if !slices.Equal(st.Resident, []model.ObjectID{n.newborn}) {
			t.Errorf("%s persisted residents %v, want [%d]", n.name, st.Resident, n.newborn)
		}
	}
}

// TestRestartIgnoresPersistedBirths: a data directory whose snapshot
// and journal carry births, as builds that persisted them wrote it,
// still recovers its residents, while the universe is the repository's:
// a birth only the directory holds stays unknown, and one only the
// repository holds is adopted with the repository's metadata.
func TestRestartIgnoresPersistedBirths(t *testing.T) {
	survey, repo := startPersistRepo(t, 16)
	base := slices.Clone(survey.Objects())
	mirror, err := catalog.NewSurvey(persistSurveyConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	births, err := mirror.GrowObjects(rand.New(rand.NewSource(4)), 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	served := births[0]
	if _, err := repo.AddObjects([]model.Birth{served}); err != nil {
		t.Fatal(err)
	}
	// The directory's copy of the served birth is another object under
	// the same ID, and its second birth the repository never had.
	stale := served
	stale.Object.Size *= 3
	dir := t.TempDir()
	store, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshot(&persist.State{
		Births:   []model.Birth{stale},
		Resident: []model.ObjectID{base[0].ID, births[1].Object.ID},
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendBirth(births[1]); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendAdmit(base[1].ID); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	mw := persistNode(t, repo.Addr(), dir, base, false)
	st := mw.Stats()
	want := []model.ObjectID{base[0].ID, base[1].ID}
	if warm := st.Metric("delta_recovered_warm"); !slices.Equal(st.Cached, want) || warm != 2 {
		t.Errorf("recovered cached %v, warm %v; want %v and 2", st.Cached, warm, want)
	}
	cl, err := client.Dial(mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(ctx, model.Query{
		Objects: []model.ObjectID{births[1].Object.ID}, Cost: cost.MB,
		Tolerance: model.AnyStaleness, Time: time.Minute,
	}); err == nil {
		t.Errorf("object %d, known only to the data directory, answered", births[1].Object.ID)
	}
	// A load checks the node's metadata against the repository's: it
	// succeeds only if the node adopted the repository's copy.
	if _, err := cl.Query(ctx, model.Query{
		Objects: []model.ObjectID{served.Object.ID}, Cost: served.Object.Size,
		Tolerance: model.AnyStaleness, Time: time.Minute,
	}); err != nil {
		t.Fatalf("load of the served birth %d: %v", served.Object.ID, err)
	}
	if got := mw.Ledger().ObjectLoad; got != served.Object.Size {
		t.Errorf("loaded %v, want the served birth's %v", got, served.Object.Size)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	if st := recoverDir(t, dir); len(st.Births) != 0 {
		t.Errorf("the restarted node persisted births %v", st.Births)
	}
}
