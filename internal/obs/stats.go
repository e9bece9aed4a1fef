package obs

import (
	"sync"
	"time"

	"github.com/deltacache/delta/internal/netproto"
)

// statsTTL memoizes the StatsMsg fetch across one scrape: a Prometheus
// scrape reads ~20 families registered here, and without memoization
// each would re-fetch the snapshot — on a router that means probing
// every shard twenty times per scrape.
const statsTTL = time.Second

// RegisterStats exposes every StatsMsg field as a metric, sourced from
// fetch at scrape time. fetch is memoized for statsTTL; a failing
// fetch serves the last good snapshot (scrapes should degrade, not
// 500, when a shard probe times out). Nil registry no-ops.
//
// Counter-natured fields (queries, hits, migrations, births, ...)
// expose as counters; instantaneous ones (resident set size, snapshot
// age, journal backlog) as gauges.
func RegisterStats(r *Registry, fetch func() (netproto.StatsMsg, error)) {
	if r == nil {
		return
	}
	var mu sync.Mutex
	var last netproto.StatsMsg
	var at time.Time
	get := func() netproto.StatsMsg {
		mu.Lock()
		defer mu.Unlock()
		if at.IsZero() || time.Since(at) > statsTTL {
			if s, err := fetch(); err == nil {
				last = s
			}
			at = time.Now()
		}
		return last
	}

	counter := func(name, help string, f func(*netproto.StatsMsg) float64) {
		r.NewCounterFunc(name, help, func() float64 { s := get(); return f(&s) })
	}
	gauge := func(name, help string, f func(*netproto.StatsMsg) float64) {
		r.NewGaugeFunc(name, help, func() float64 { s := get(); return f(&s) })
	}

	counter("delta_queries_total", "Queries handled by this node.",
		func(s *netproto.StatsMsg) float64 { return float64(s.Queries) })
	counter("delta_queries_at_cache_total", "Queries answered from local cache state (hits).",
		func(s *netproto.StatsMsg) float64 { return float64(s.AtCache) })
	counter("delta_queries_shipped_total", "Queries shipped upstream to the repository.",
		func(s *netproto.StatsMsg) float64 { return float64(s.Shipped) })
	counter("delta_dropped_invalidations_total", "Invalidation notices discarded rather than applied.",
		func(s *netproto.StatsMsg) float64 { return float64(s.DroppedInvalidations) })
	counter("delta_deduped_loads_total", "Object loads collapsed into an in-flight load (singleflight).",
		func(s *netproto.StatsMsg) float64 { return float64(s.DedupedLoads) })
	counter("delta_migrated_in_total", "Objects adopted warm as a new holder during live resizes.",
		func(s *netproto.StatsMsg) float64 { return float64(s.MigratedIn) })
	counter("delta_objects_born_total", "Newly published objects admitted into this node's universe.",
		func(s *netproto.StatsMsg) float64 { return float64(s.ObjectsBorn) })
	counter("delta_cover_cache_hits_total", "Sky-region resolutions answered from the HTM cover cache.",
		func(s *netproto.StatsMsg) float64 { return float64(s.CoverCacheHits) })
	counter("delta_cover_cache_misses_total", "Sky-region resolutions recomputed via partition cover.",
		func(s *netproto.StatsMsg) float64 { return float64(s.CoverCacheMisses) })
	counter("delta_ledger_query_ship_bytes_total", "Logical bytes charged to query shipping.",
		func(s *netproto.StatsMsg) float64 { return float64(s.Ledger.QueryShip) })
	counter("delta_ledger_update_ship_bytes_total", "Logical bytes charged to update shipping.",
		func(s *netproto.StatsMsg) float64 { return float64(s.Ledger.UpdateShip) })
	counter("delta_ledger_object_load_bytes_total", "Logical bytes charged to object loading.",
		func(s *netproto.StatsMsg) float64 { return float64(s.Ledger.ObjectLoad) })
	counter("delta_ledger_query_ships_total", "Query-shipping transfers charged to the ledger.",
		func(s *netproto.StatsMsg) float64 { return float64(s.Ledger.QueryShips) })
	counter("delta_ledger_update_ships_total", "Update-shipping transfers charged to the ledger.",
		func(s *netproto.StatsMsg) float64 { return float64(s.Ledger.UpdateShips) })
	counter("delta_ledger_object_loads_total", "Object-load transfers charged to the ledger.",
		func(s *netproto.StatsMsg) float64 { return float64(s.Ledger.ObjectLoads) })
	gauge("delta_cached_objects", "Objects currently resident in this node's cache.",
		func(s *netproto.StatsMsg) float64 { return float64(len(s.Cached)) })
	gauge("delta_snapshot_age_seconds", "Age of the newest durability snapshot (0 when persistence is off).",
		func(s *netproto.StatsMsg) float64 { return s.SnapshotAge.Seconds() })
	gauge("delta_journal_records", "Durability journal records appended since the last snapshot (what a crash now would replay).",
		func(s *netproto.StatsMsg) float64 { return float64(s.JournalRecords) })
	gauge("delta_recovered_warm", "Residents re-adopted from disk at the last startup.",
		func(s *netproto.StatsMsg) float64 { return float64(s.RecoveredWarm) })
}
