package obs_test

// External test package: boots a real repository node with a debug
// endpoint and scrapes it over HTTP, so the exposition that ships is
// the exposition that parses. Lives outside package obs because the
// server imports obs.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/obs"
	"github.com/deltacache/delta/internal/server"
)

// TestMetricsExpositionSmoke is the in-process twin of the CI metrics
// smoke: start a node with -metrics-addr, serve it a query, scrape
// /metrics, and fail on anything ParseExposition rejects.
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
	if repo.DebugAddr() == "" {
		t.Fatal("repository started with MetricsAddr but reports no debug address")
	}

	// Serve one query so the query-path counters and histograms have
	// something to say.
	cl, err := client.Dial(repo.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	obj := survey.Objects()[0].ID
	if _, err := cl.Query(t.Context(), model.Query{
		Objects:   []model.ObjectID{obj},
		Cost:      cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", repo.DebugAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, body)
	}

	// Every StatsMsg-backed family plus the node's own histograms must
	// be present in a single scrape.
	for _, name := range []string{
		"delta_queries_total",
		"delta_queries_at_cache_total",
		"delta_queries_shipped_total",
		"delta_dropped_invalidations_total",
		"delta_deduped_loads_total",
		"delta_migrated_in_total",
		"delta_objects_born_total",
		"delta_cover_cache_hits_total",
		"delta_cover_cache_misses_total",
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
		"delta_repo_query_seconds",
		"delta_repo_load_seconds",
		"delta_journal_fsync_seconds",
	} {
		if _, ok := families[name]; !ok {
			t.Errorf("scrape missing family %q", name)
		}
	}
	if f := families["delta_queries_total"]; f.Samples["delta_queries_total"] < 1 {
		t.Errorf("delta_queries_total = %v after a served query, want >= 1",
			f.Samples["delta_queries_total"])
	}
	if f := families["delta_repo_query_seconds"]; f.Samples["delta_repo_query_seconds_count"] < 1 {
		t.Errorf("delta_repo_query_seconds_count = %v after a served query, want >= 1",
			f.Samples["delta_repo_query_seconds_count"])
	}

	// /healthz answers on the same mux — the liveness probe CI leans on.
	hresp, err := http.Get(fmt.Sprintf("http://%s/healthz", repo.DebugAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d, want 200", hresp.StatusCode)
	}
}
