package obs_test

// External test package: boots real nodes with debug endpoints and
// scrapes them over HTTP, so the exposition that ships is the
// exposition that parses. Lives outside package obs because every node
// imports obs.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/obs"
	"github.com/deltacache/delta/internal/server"
)

// TestMetricsExpositionSmoke boots one node of each kind — a
// repository, a cache against it, and a router over a shard — each with
// its debug endpoint, serves a query through each, scrapes /metrics over
// HTTP and fails on anything ParseExposition rejects, on a missing
// family, on a family the node does not count, on a counter not named
// *_total, or on a stats answer whose samples are not the scrape's: an
// unparseable, incomplete or wrong exposition fails the build before
// any dashboard sees it.
func TestMetricsExpositionSmoke(t *testing.T) {
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 8
	scfg.TotalSize = 8 * cost.GB
	scfg.MinObjectSize = 100 * cost.MB
	scfg.MaxObjectSize = 2 * cost.GB
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := server.New(server.Config{
		Survey:      survey,
		Scale:       netproto.DefaultScale(),
		MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	// The repository exposes what it counts; what only a cache counts
	// (hits, loads, residents) is absent, not zero.
	families, _ := scrapeAfterQuery(t, "repository", repo.Addr(), repo.DebugAddr(), survey.Objects()[0].ID, true,
		"delta_queries_total",
		"delta_dropped_invalidations_total",
		"delta_objects_born_total",
		"delta_ledger_query_ship_bytes_total",
		"delta_ledger_update_ship_bytes_total",
		"delta_ledger_object_load_bytes_total",
		"delta_ledger_query_ships_total",
		"delta_ledger_update_ships_total",
		"delta_ledger_object_loads_total",
		"delta_snapshot_age_seconds",
		"delta_journal_records",
		"delta_recovered_warm",
		"delta_repo_query_seconds",
		"delta_repo_load_seconds",
		"delta_repo_notices_total",
		"delta_repo_notices_filtered_total",
		"delta_journal_fsync_seconds",
	)
	absent(t, "repository", families,
		"delta_queries_at_cache_total",
		"delta_queries_shipped_total",
		"delta_deduped_loads_total",
		"delta_migrated_in_total",
		"delta_cover_cache_hits_total",
		"delta_cover_cache_misses_total",
		"delta_cached_objects",
		"delta_invalidation_gaps_total",
		"delta_invalidation_notices_total",
	)
	if f := families["delta_queries_total"]; f.Samples["delta_queries_total"] < 1 {
		t.Errorf("delta_queries_total = %v after a served query, want >= 1",
			f.Samples["delta_queries_total"])
	}
	if f := families["delta_repo_query_seconds"]; f.Samples["delta_repo_query_seconds_count"] < 1 {
		t.Errorf("delta_repo_query_seconds_count = %v after a served query, want >= 1",
			f.Samples["delta_repo_query_seconds_count"])
	}

	cacheNode := func(shard bool, metricsAddr string) *cache.Middleware {
		t.Helper()
		mw, err := cache.New(cache.Config{
			RepoAddr:    repo.Addr(),
			Policy:      core.NewVCover(core.DefaultVCoverConfig()),
			Objects:     survey.Objects(),
			Shard:       shard,
			Capacity:    survey.TotalSize(),
			Scale:       netproto.DefaultScale(),
			MetricsAddr: metricsAddr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mw.Close() })
		if err := mw.Start(); err != nil {
			t.Fatal(err)
		}
		return mw
	}
	mw := cacheNode(false, "127.0.0.1:0")
	families, _ = scrapeAfterQuery(t, "cache", mw.Addr(), mw.DebugAddr(), survey.Objects()[0].ID, true,
		"delta_queries_total",
		"delta_queries_at_cache_total",
		"delta_queries_shipped_total",
		"delta_dropped_invalidations_total",
		"delta_deduped_loads_total",
		"delta_migrated_in_total",
		"delta_objects_born_total",
		"delta_ledger_query_ship_bytes_total",
		"delta_ledger_update_ship_bytes_total",
		"delta_ledger_object_load_bytes_total",
		"delta_ledger_query_ships_total",
		"delta_ledger_update_ships_total",
		"delta_ledger_object_loads_total",
		"delta_cached_objects",
		"delta_snapshot_age_seconds",
		"delta_journal_records",
		"delta_recovered_warm",
		"delta_decision_violations_total",
		"delta_query_seconds",
		"delta_load_seconds",
		"delta_journal_fsync_seconds",
		"delta_invalidation_gaps_total",
		"delta_invalidation_notices_total",
	)
	// Only the repository withholds notices; the nodes it spares count
	// nothing of it. Region resolution keeps no counters.
	absent(t, "cache", families, "delta_repo_notices_total", "delta_repo_notices_filtered_total",
		"delta_cover_cache_hits_total", "delta_cover_cache_misses_total")

	shard := cacheNode(true, "")
	own, err := core.NewOwnership(survey.Objects(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(cluster.Config{
		Shards:      []string{shard.Addr()},
		Ownership:   own,
		RepoAddr:    repo.Addr(),
		MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if err := router.Start(); err != nil {
		t.Fatal(err)
	}
	// The router exposes what it counts; the shards' totals are theirs
	// to expose (or delta-client -stats).
	families, agg := scrapeAfterQuery(t, "router", router.Addr(), router.DebugAddr(), survey.Objects()[0].ID, false,
		"delta_router_queries_total",
		"delta_router_query_seconds",
		"delta_router_fragment_seconds",
		"delta_router_shards",
		"delta_router_epoch",
		"delta_router_replicas",
		"delta_invalidation_gaps_total",
		"delta_invalidation_notices_total",
	)
	absent(t, "router", families,
		"delta_queries_total",
		"delta_queries_at_cache_total",
		"delta_queries_shipped_total",
		"delta_dropped_invalidations_total",
		"delta_deduped_loads_total",
		"delta_migrated_in_total",
		"delta_objects_born_total",
		"delta_ledger_query_ship_bytes_total",
		"delta_ledger_update_ship_bytes_total",
		"delta_ledger_object_load_bytes_total",
		"delta_ledger_query_ships_total",
		"delta_ledger_update_ships_total",
		"delta_ledger_object_loads_total",
		"delta_cached_objects",
		"delta_snapshot_age_seconds",
		"delta_journal_records",
		"delta_recovered_warm",
		"delta_shard_up",
		"delta_repo_notices_total",
		"delta_repo_notices_filtered_total",
		"delta_cover_cache_hits_total",
		"delta_cover_cache_misses_total",
	)
	if got, want := families["delta_router_queries_total"].Samples["delta_router_queries_total"], float64(router.Queries()); got != want {
		t.Errorf("delta_router_queries_total = %v, router counted %v", got, want)
	}
	// Its stats answer, which no /metrics exposes, adds the shards'
	// samples to its own, and lists each shard's again under its label.
	want := shard.Stats().Metric("delta_queries_total")
	if got := agg.Metric("delta_queries_total"); got != want || got < 1 {
		t.Errorf("router aggregate delta_queries_total = %v, its one shard counted %v", got, want)
	}
	if got := agg.Metric(`delta_queries_total{shard="0"}`); got != want {
		t.Errorf(`router's delta_queries_total{shard="0"} = %v, its one shard counted %v`, got, want)
	}
	if up := agg.Metric(fmt.Sprintf(`delta_shard_up{shard="0",addr=%q}`, shard.Addr())); up != 1 {
		t.Errorf("router's delta_shard_up for its live shard = %v, want 1", up)
	}
}

// absent fails the test for every named family the node's scrape has.
func absent(t *testing.T, node string, families map[string]*obs.Family, names ...string) {
	t.Helper()
	for _, name := range names {
		if _, ok := families[name]; ok {
			t.Errorf("%s scrape has family %q, which it does not count", node, name)
		}
	}
}

// checkSamples fails the test on a counter family not named *_total,
// and unless st lists every counter and gauge family of the scrape with
// its scraped value. With whole set, st must list nothing else either:
// a repository's or a cache's stats answer is its registry. A router's
// aggregate also carries its shards' samples, which its /metrics does
// not expose.
func checkSamples(t *testing.T, node string, families map[string]*obs.Family, st *netproto.StatsMsg, whole bool) {
	t.Helper()
	listed := make(map[string]float64, len(st.Metrics))
	for _, m := range st.Metrics {
		listed[m.Name] = m.Value
		if _, ok := families[m.Name]; whole && !ok {
			t.Errorf("%s stats answer has sample %s, which its scrape does not", node, m.Name)
		}
	}
	for name, f := range families {
		if f.Type == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("%s counter %s does not end in _total", node, name)
		}
		if f.Type == "histogram" {
			continue
		}
		if got, ok := listed[name]; !ok {
			t.Errorf("%s stats answer lacks %s %s", node, f.Type, name)
		} else if got != f.Samples[name] {
			t.Errorf("%s scrape %s = %v, its stats answer says %v", node, name, f.Samples[name], got)
		}
	}
	// The structured fields agree with the families that count them.
	l := st.Ledger
	for name, want := range map[string]int64{
		"delta_ledger_query_ship_bytes_total":  int64(l.QueryShip),
		"delta_ledger_update_ship_bytes_total": int64(l.UpdateShip),
		"delta_ledger_object_load_bytes_total": int64(l.ObjectLoad),
		"delta_ledger_query_ships_total":       l.QueryShips,
		"delta_ledger_update_ships_total":      l.UpdateShips,
		"delta_ledger_object_loads_total":      l.ObjectLoads,
		"delta_cached_objects":                 int64(len(st.Cached)),
	} {
		if f, ok := families[name]; ok && f.Samples[name] != float64(want) {
			t.Errorf("%s scrape %s = %v, its stats answer's structured fields say %d", node, name, f.Samples[name], want)
		}
	}
}

// scrapeAfterQuery serves one query on obj through the node at addr,
// scrapes its /metrics at debugAddr, and fails the test on an exposition
// that does not parse, lacks a required family, or disagrees with the
// node's MsgStats answer read after the scrape (checkSamples, with
// whole). /healthz must answer on the same mux. It returns the parsed
// families and the stats answer.
func scrapeAfterQuery(t *testing.T, node, addr, debugAddr string, obj model.ObjectID, whole bool, required ...string) (map[string]*obs.Family, *netproto.StatsMsg) {
	t.Helper()
	if debugAddr == "" {
		t.Fatalf("%s started with MetricsAddr but reports no debug address", node)
	}
	// Serve one query so the query-path counters and histograms have
	// something to say.
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(t.Context(), model.Query{
		Objects:   []model.ObjectID{obj},
		Cost:      cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	}); err != nil {
		t.Fatalf("%s query: %v", node, err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", debugAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s /metrics status = %d, want 200", node, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s scrape does not parse: %v\n%s", node, err, body)
	}
	for _, name := range required {
		if _, ok := families[name]; !ok {
			t.Errorf("%s scrape missing family %q", node, name)
		}
	}
	st, err := cl.Stats(t.Context())
	if err != nil {
		t.Fatalf("%s stats: %v", node, err)
	}
	checkSamples(t, node, families, st, whole)

	hresp, err := http.Get(fmt.Sprintf("http://%s/healthz", debugAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("%s /healthz status = %d, want 200", node, hresp.StatusCode)
	}
	return families, st
}
