package cluster_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

// restartCluster is one cluster under the restart-recovery soak: its
// own repository and survey mirror (so growth bursts mint identical
// births on both clusters), and the shared set of queryable IDs.
type restartCluster struct {
	repo   *server.Repository
	mirror *catalog.Survey
	lc     *cluster.LocalCluster

	knownMu sync.RWMutex
	known   []model.ObjectID
}

// spawnRestartCluster stands up a repository plus a 3-shard cluster
// over nBase equal-sized objects. When dataDir is non-empty every
// shard persists to dataDir/shard-<i> on a fast snapshot cadence.
func spawnRestartCluster(t *testing.T, nBase int, dataDir string) *restartCluster {
	t.Helper()
	repoSurvey, err := catalog.NewSurvey(growthSurveyConfig(nBase))
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := catalog.NewSurvey(growthSurveyConfig(nBase))
	if err != nil {
		t.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: repoSurvey, Scale: netproto.PayloadScale{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	cfg := cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  repoSurvey.Objects(),
		Shards:   3,
		Mode:     cluster.HTMAware,
		Scale:    netproto.PayloadScale{},
	}
	if dataDir != "" {
		cfg.ShardDataDir = func(s int) string {
			return filepath.Join(dataDir, fmt.Sprintf("shard-%d", s))
		}
		cfg.SnapshotInterval = 50 * time.Millisecond
	}
	lc, err := cluster.SpawnLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	rc := &restartCluster{repo: repo, mirror: mirror, lc: lc}
	for _, o := range repoSurvey.Objects() {
		rc.known = append(rc.known, o.ID)
	}
	return rc
}

func (rc *restartCluster) pick(rng *rand.Rand) model.ObjectID {
	rc.knownMu.RLock()
	defer rc.knownMu.RUnlock()
	return rc.known[rng.Intn(len(rc.known))]
}

// grow publishes a burst of n births through the cluster and adds the
// acked IDs to the queryable set.
func (rc *restartCluster) grow(t *testing.T, rng *rand.Rand, n int, at time.Duration) {
	t.Helper()
	births, err := rc.mirror.GrowObjects(rng, n, at)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.DialCluster(rc.lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.AddObjects(ctx, births); err != nil {
		t.Fatalf("growth burst: %v", err)
	}
	rc.knownMu.Lock()
	for _, b := range births {
		rc.known = append(rc.known, b.Object.ID)
	}
	rc.knownMu.Unlock()
}

// soakPhase drives nWorkers concurrent clients through perWorker
// queries each against the cluster, every query costing a full object
// size so first touches load deterministically and repeats hit cache.
// Returns (queries, cache hits); any failed query fails the test.
func soakPhase(t *testing.T, rc *restartCluster, seedBase int64, nWorkers, perWorker int) (int64, int64) {
	t.Helper()
	var queries, hits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		cl, err := client.DialCluster(rc.lc.Router.Addr())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, cl *client.Client) {
			defer wg.Done()
			defer cl.Close()
			rng := rand.New(rand.NewSource(seedBase + int64(w)))
			for i := 0; i < perWorker; i++ {
				id := rc.pick(rng)
				res, err := cl.Query(ctx, model.Query{
					Objects: []model.ObjectID{id}, Cost: cost.GB,
					Tolerance: model.AnyStaleness,
					Time:      time.Duration(i) * time.Millisecond,
				})
				if err != nil {
					t.Errorf("worker %d query %d (object %d): %v", w, i, id, err)
					return
				}
				queries.Add(1)
				if res.Source == "cache" {
					hits.Add(1)
				}
			}
		}(w, cl)
	}
	wg.Wait()
	return queries.Load(), hits.Load()
}

// TestRestartRecoverySoak is the crash-recovery matrix of the issue: a
// persistent cluster soaks under concurrent clients with growth
// bursts, resizes 3→4, then has a shard stopped and restarted from its
// data directory. An identical ephemeral cluster runs the same
// workload with no restart as the never-restarted baseline. The
// restarted cluster's post-restart hit rate must land within 10% of
// the baseline's (the shard rejoined warm, not cold), with zero failed
// queries and a non-zero RecoveredWarm surfaced through cluster stats.
//
// The shard is bounced between workload phases: RestartShard documents
// that queries racing the Close→rejoin window fail (the routing table
// briefly names a dead address), and this soak's contract is zero
// failed queries, so traffic pauses for the bounce exactly as an
// operator draining a node would.
func TestRestartRecoverySoak(t *testing.T) {
	const (
		nBase     = 24
		nWorkers  = 3
		perWorker = 120
		burstSize = 4
	)
	durable := spawnRestartCluster(t, nBase, t.TempDir())
	baseline := spawnRestartCluster(t, nBase, "")
	growRng := func() *rand.Rand { return rand.New(rand.NewSource(77)) }

	// Phase 1: identical warm-up soak on both clusters, a growth burst
	// landing mid-phase on each.
	type phaseResult struct{ q, h int64 }
	phase := func(seed int64, grow bool, growAt time.Duration) (phaseResult, phaseResult) {
		var res [2]phaseResult
		var wg sync.WaitGroup
		for i, rc := range []*restartCluster{durable, baseline} {
			wg.Add(1)
			go func(i int, rc *restartCluster) {
				defer wg.Done()
				if grow {
					rc.grow(t, growRng(), burstSize, growAt)
				}
				q, h := soakPhase(t, rc, seed, nWorkers, perWorker)
				res[i] = phaseResult{q, h}
			}(i, rc)
		}
		wg.Wait()
		return res[0], res[1]
	}
	phase(100, true, time.Second)

	// Both clusters resize 3→4 (staying comparable); only the durable
	// one then has shard 1 bounced — restart-after-resize is the harder
	// case, since the recovered residents must be carried through the
	// post-resize ownership cut.
	if _, err := durable.lc.Resize(ctx, 4, false); err != nil {
		t.Fatalf("resize durable cluster: %v", err)
	}
	if _, err := baseline.lc.Resize(ctx, 4, false); err != nil {
		t.Fatalf("resize baseline cluster: %v", err)
	}
	if err := durable.lc.RestartShard(ctx, 1); err != nil {
		t.Fatalf("restart shard: %v", err)
	}

	// Phase 2: identical post-restart soak, another growth burst.
	dur2, base2 := phase(200, true, 2*time.Second)
	if dur2.q == 0 || base2.q == 0 {
		t.Fatal("a phase-2 soak recorded no queries")
	}
	durRate := float64(dur2.h) / float64(dur2.q)
	baseRate := float64(base2.h) / float64(base2.q)
	t.Logf("phase-2 hit rate: restarted %.3f (%d/%d), never-restarted %.3f (%d/%d)",
		durRate, dur2.h, dur2.q, baseRate, base2.h, base2.q)
	if durRate < 0.9*baseRate {
		t.Errorf("restarted cluster hit rate %.3f below 90%% of never-restarted %.3f: shard rejoined cold", durRate, baseRate)
	}

	// The recovery must be observable, not incidental: the bounced
	// shard re-adopted residents from disk, and the aggregation path
	// surfaces it through cluster stats.
	verify, err := client.DialCluster(durable.lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Close()
	cs, err := verify.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Aggregate.Metric("delta_recovered_warm") == 0 {
		t.Error("restarted shard recovered no residents from disk (delta_recovered_warm == 0)")
	}
	if cs.Aggregate.Metric("delta_objects_born_total") == 0 {
		t.Error("no shard admitted the growth bursts")
	}

	// Every birth — including ones published before the restart — must
	// remain queryable on the restarted cluster.
	durable.knownMu.RLock()
	born := append([]model.ObjectID(nil), durable.known[nBase:]...)
	durable.knownMu.RUnlock()
	if len(born) != 2*burstSize {
		t.Fatalf("expected %d births, tracked %d", 2*burstSize, len(born))
	}
	for _, id := range born {
		if _, err := verify.Query(ctx, model.Query{
			Objects: []model.ObjectID{id}, Cost: cost.KB,
			Tolerance: model.AnyStaleness, Time: time.Minute,
		}); err != nil {
			t.Errorf("born object %d not queryable after restart: %v", id, err)
		}
	}
}

// TestRestartedShardKeepsWarmNewborn: a newborn resident on the shard
// that adopted its birth moves warm, in a resize, to a shard that never
// adopted it and learned its metadata only from the reshard. Restarted
// from its data directory, that shard holds every resident it had again
// once the router's reshard installs it, the newborn included, and
// counts each in RecoveredWarm.
func TestRestartedShardKeepsWarmNewborn(t *testing.T) {
	rc := spawnRestartCluster(t, 12, t.TempDir())
	rc.grow(t, rand.New(rand.NewSource(3)), 6, time.Second)
	cl, err := client.DialCluster(rc.lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	born := rc.known[12:]
	// A query costing the object's size loads it at its owner.
	for _, id := range born {
		if _, err := cl.Query(ctx, model.Query{
			Objects: []model.ObjectID{id}, Cost: cost.GB,
			Tolerance: model.AnyStaleness, Time: 2 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := rc.lc.Router.Ownership()
	if _, err := rc.lc.Resize(ctx, 2, false); err != nil {
		t.Fatal(err)
	}
	after := rc.lc.Router.Ownership()
	var shard int
	newborn := model.ObjectID(-1)
	for _, id := range born {
		was, _ := before.Owner(id)
		now, _ := after.Owner(id)
		if was != now {
			shard, newborn = now, id
			break
		}
	}
	if newborn < 0 {
		t.Fatal("no newborn changed shards in the resize; the test would be vacuous")
	}
	warm := rc.lc.Shards[shard].Stats().Cached
	if !slices.Contains(warm, newborn) {
		t.Fatalf("newborn %d did not arrive warm on shard %d (cached %v)", newborn, shard, warm)
	}
	if err := rc.lc.RestartShard(ctx, shard); err != nil {
		t.Fatal(err)
	}
	st := rc.lc.Shards[shard].Stats()
	if !slices.Equal(st.Cached, warm) {
		t.Errorf("restarted shard %d holds %v, want %v (newborn %d)", shard, st.Cached, warm, newborn)
	}
	if got := st.Metric("delta_recovered_warm"); got != float64(len(warm)) {
		t.Errorf("delta_recovered_warm = %v, want %d", got, len(warm))
	}
}
