package cluster

import (
	"context"
	"fmt"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// Mode names an ownership rule. There is one, HTMAware; the type
// remains for LocalConfig.Mode.
type Mode int

// HTMAware is placement by contiguous, size-balanced HTM cuts (see
// core.Ownership), the zero and only Mode.
const HTMAware Mode = 0

// LocalConfig parameterizes SpawnLocal.
type LocalConfig struct {
	// RepoAddr is the repository every shard loads from.
	RepoAddr string
	// Objects is the full object universe (each shard owns a subset).
	Objects []model.Object
	// Shards is how many cache shards to spawn.
	Shards int
	// Mode is ignored and has one value: placement has one rule, HTM
	// cuts. It stays only because bench/ sets it; ROADMAP item 1(a)
	// deletes it with the next change to the benchmark.
	Mode Mode
	// Replicas is the replication factor K: how many shards hold each
	// object (0 and 1 both mean unreplicated). With K ≥ 2 the router
	// fails fragments over to the next replica and may hedge reads.
	Replicas int
	// Hedge enables hedged reads at the router (requires Replicas ≥ 2
	// to have any effect; see cluster.Config.Hedge).
	Hedge bool
	// HedgeDelay pins the router's hedge delay (0 derives it from the
	// observed fragment latency p99; see cluster.Config.HedgeDelay).
	HedgeDelay time.Duration
	// ShardCapacity is each shard's cache size. Zero sizes every shard
	// to hold its entire owned subset (the replicated-cluster shape),
	// and keeps it sized that way across live resizes.
	ShardCapacity cost.Bytes
	// Policy builds each shard's policy, once, when the shard spawns
	// (SpawnLocal, a Resize that adds it, or RestartShard); the shard
	// keeps that instance for its whole life. Nil defaults each shard to
	// VCover.
	Policy func(shard int) core.Policy
	// Scale converts logical sizes to physical payloads.
	Scale netproto.PayloadScale
	// ResultCacheSize bounds the router's result cache + coalescer
	// (see cluster.Config.ResultCacheSize: 0 = default, negative
	// disables).
	ResultCacheSize int
	// Regions, when set, lets the router answer sky-region queries
	// (see cluster.Config.Regions).
	Regions *catalog.Survey
	// ShardDataDir, when non-nil, gives each shard a persistence
	// directory (cache.Config.DataDir), enabling durable warm restarts:
	// RestartShard respawns a shard from its directory and the recovered
	// residents rejoin warm. Return "" to leave a shard ephemeral.
	ShardDataDir func(shard int) string
	// Logf logs events; nil silences.
	Logf func(format string, args ...any)
}

// LocalCluster is an in-process sharded deployment: N cache shards and
// the router fronting them, all on loopback. Tests and benchmarks use
// it to stand up a whole topology in a few milliseconds — and resize it
// live with Resize.
type LocalCluster struct {
	Ownership *core.Ownership
	Shards    []*cache.Middleware
	Router    *Router

	cfg LocalConfig
}

// SpawnLocal builds the ownership map, spawns every shard (each a full
// cache.Middleware that owns nothing yet), and starts the router over
// them, whose first reshard tells each shard what it owns.
func SpawnLocal(cfg LocalConfig) (*LocalCluster, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("cluster: shard count must be positive")
	}
	own, err := core.NewOwnership(cfg.Objects, cfg.Shards, max(cfg.Replicas, 1))
	if err != nil {
		return nil, err
	}
	lc := &LocalCluster{Ownership: own, cfg: cfg}
	fail := func(err error) (*LocalCluster, error) {
		lc.Close()
		return nil, err
	}
	addrs := make([]string, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		mw, err := lc.spawnShard(s, own)
		if err != nil {
			return fail(err)
		}
		lc.Shards = append(lc.Shards, mw)
		addrs[s] = mw.Addr()
	}
	router, err := NewRouter(Config{
		Shards:          addrs,
		Ownership:       own,
		RepoAddr:        cfg.RepoAddr,
		ResultCacheSize: cfg.ResultCacheSize,
		Regions:         cfg.Regions,
		Hedge:           cfg.Hedge,
		HedgeDelay:      cfg.HedgeDelay,
		Logf:            cfg.Logf,
	})
	if err != nil {
		return fail(err)
	}
	lc.Router = router
	if err := router.Start(); err != nil {
		return fail(err)
	}
	return lc, nil
}

// spawnShard builds and starts cache shard s, owning nothing until a
// reshard from the router. The shard's configured universe is own's
// (base objects plus births adopted before the spawn), so a shard
// joining a grown cluster knows every object it may own.
func (lc *LocalCluster) spawnShard(s int, own *core.Ownership) (*cache.Middleware, error) {
	cfg := lc.cfg
	var policy core.Policy
	if cfg.Policy != nil {
		policy = cfg.Policy(s)
	}
	// Shards treat the universe as read-only, so they share the
	// ownership's slice instead of cloning a million objects per shard.
	universe := own.Universe()
	var reshardCapacity func([]model.Object) cost.Bytes
	if cfg.ShardCapacity == 0 {
		reshardCapacity = cache.ReplicatedCapacity
	}
	var dataDir string
	if cfg.ShardDataDir != nil {
		dataDir = cfg.ShardDataDir(s)
	}
	mw, err := cache.New(cache.Config{
		RepoAddr:        cfg.RepoAddr,
		Policy:          policy,
		Objects:         universe,
		Shard:           true,
		Capacity:        cfg.ShardCapacity,
		ReshardCapacity: reshardCapacity,
		Scale:           cfg.Scale,
		DataDir:         dataDir,
		Logf:            cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
	}
	if err := mw.Start(); err != nil {
		mw.Close()
		return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
	}
	return mw, nil
}

// Resize takes the local cluster to m shards, live: growing spawns
// fresh (empty) shards for the new indices before handing the router
// the new address list; shrinking closes the released shards once the
// router has drained them from the routing table. Traffic keeps
// flowing throughout; cached state follows ownership through the
// reshards' warm lists unless skipMigration (the cold baseline) is set.
func (lc *LocalCluster) Resize(ctx context.Context, m int, skipMigration bool) (netproto.RebalanceStatusMsg, error) {
	if m <= 0 {
		return netproto.RebalanceStatusMsg{}, fmt.Errorf("cluster: shard count must be positive")
	}
	// Resize over the router's live ownership, not the spawn-time one:
	// births adopted since spawn are part of the universe the new cut
	// must span.
	ownNew, err := lc.Router.Ownership().Resize(m)
	if err != nil {
		return netproto.RebalanceStatusMsg{}, err
	}
	shards := lc.Shards
	for s := len(shards); s < m; s++ {
		mw, err := lc.spawnShard(s, ownNew)
		if err != nil {
			for _, added := range shards[len(lc.Shards):] {
				added.Close()
			}
			return netproto.RebalanceStatusMsg{}, err
		}
		shards = append(shards, mw)
	}
	addrs := make([]string, m)
	for i := 0; i < m; i++ {
		addrs[i] = shards[i].Addr()
	}
	st, err := lc.Router.Resize(ctx, ResizeSpec{Shards: addrs, SkipMigration: skipMigration})
	if err != nil && st.Phase != "done" {
		// The resize never flipped: close any shards spawned for it.
		for _, added := range shards[len(lc.Shards):] {
			added.Close()
		}
		return st, err
	}
	for _, removed := range shards[m:] {
		removed.Close()
	}
	lc.Shards = shards[:m:m]
	lc.Ownership = lc.Router.Ownership()
	return st, err
}

// RestartShard stops shard s and brings it back from its persistence
// directory — the durable-warm-restart path. The old process closes
// (flushing a final snapshot), a fresh Middleware recovers the shard's
// grown universe and resident set from disk, and the router is resized
// in place over the same shard count so the replacement address joins
// the routing table: the accompanying reshard at the next epoch grants
// ownership, and the recovered residents it still owns carry over warm
// through the same core.Warmable path a live resize uses. Queries
// issued between Close and the resize completing fail over nothing (the
// routing table still names the dead address), so callers pause traffic
// to the shard or tolerate errors for the window.
func (lc *LocalCluster) RestartShard(ctx context.Context, s int) error {
	if s < 0 || s >= len(lc.Shards) {
		return fmt.Errorf("cluster: no shard %d to restart", s)
	}
	if err := lc.Shards[s].Close(); err != nil {
		return fmt.Errorf("cluster: stop shard %d: %w", s, err)
	}
	own := lc.Router.Ownership()
	mw, err := lc.spawnShard(s, own)
	if err != nil {
		return err
	}
	addrs := make([]string, len(lc.Shards))
	for i, sh := range lc.Shards {
		addrs[i] = sh.Addr()
	}
	addrs[s] = mw.Addr()
	// Same shard count, one replaced address: the ownership cut is
	// unchanged, so nothing migrates — the restarted shard's warmth
	// comes from its own disk, not from siblings.
	if _, err := lc.Router.Resize(ctx, ResizeSpec{Shards: addrs, SkipMigration: true}); err != nil {
		mw.Close()
		return fmt.Errorf("cluster: rejoin restarted shard %d: %w", s, err)
	}
	lc.Shards[s] = mw
	lc.Ownership = lc.Router.Ownership()
	return nil
}

// Close tears the whole topology down, router first.
func (lc *LocalCluster) Close() error {
	var err error
	if lc.Router != nil {
		err = lc.Router.Close()
	}
	for _, s := range lc.Shards {
		if e := s.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}
