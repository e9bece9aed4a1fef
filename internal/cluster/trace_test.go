package cluster_test

import (
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/obs"
)

// checkSpanTree validates a scattered query's fan-out trace: one
// router span at the head carrying the routing epoch and scatter
// width, one fragment span per touched shard, and every repository
// span following the fragment that shipped to it.
func checkSpanTree(t *testing.T, res *client.Result, wantShards int) {
	t.Helper()
	if res.TraceID == 0 {
		t.Fatal("traced query returned TraceID 0")
	}
	if len(res.Spans) == 0 {
		t.Fatal("traced query returned no spans")
	}
	router := res.Spans[0]
	if router.Name != "router" {
		t.Fatalf("first span is %q, want router (spans: %+v)", router.Name, res.Spans)
	}
	if router.Fragments != wantShards {
		t.Errorf("router span fragments = %d, want %d", router.Fragments, wantShards)
	}
	if router.Epoch != 0 {
		t.Errorf("fresh cluster routed at epoch %d, want 0", router.Epoch)
	}
	if router.Shard != -1 || router.Source != res.Source {
		t.Errorf("router span = %+v, want shard -1 and source %q", router, res.Source)
	}
	if router.Elapsed <= 0 {
		t.Errorf("router span elapsed = %v, want > 0", router.Elapsed)
	}
	seen := map[int]bool{}
	lastFragment := -1
	for _, s := range res.Spans[1:] {
		switch s.Name {
		case "fragment":
			if seen[s.Shard] {
				t.Errorf("duplicate fragment span for shard %d", s.Shard)
			}
			seen[s.Shard] = true
			lastFragment = s.Shard
			if s.Elapsed <= 0 {
				t.Errorf("fragment shard %d elapsed = %v, want > 0", s.Shard, s.Elapsed)
			}
			if s.Source == "" {
				t.Errorf("fragment shard %d has no source", s.Shard)
			}
		case "repository", "load":
			if lastFragment < 0 {
				t.Errorf("%s span precedes any fragment span", s.Name)
			}
		default:
			t.Errorf("unexpected span %q under a router trace", s.Name)
		}
	}
	if len(seen) != wantShards {
		t.Errorf("fragment spans cover %d shards, want %d (spans: %+v)",
			len(seen), wantShards, res.Spans)
	}
}

// TestTracedQuerySpanTree drives a traced query across a 3-shard
// cluster and checks the assembled fan-out tree, its rendering, and
// that untraced queries stay untraced.
func TestTracedQuerySpanTree(t *testing.T) {
	_, _, lc := startCluster(t, 3, nil)
	cl, err := client.Dial(lc.Router.Addr(), client.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	objs := spanningObjects(t, lc)
	res, err := cl.Query(ctx, model.Query{
		Objects:   objs,
		Cost:      9 * cost.MB,
		Tolerance: model.AnyStaleness,
		Time:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSpanTree(t, res, 3)

	// A cold cluster ships every fragment to the repository, so the
	// tree must also show the repository hops.
	repoSpans := 0
	for _, s := range res.Spans {
		if s.Name == "repository" {
			repoSpans++
		}
	}
	if repoSpans == 0 {
		t.Errorf("cold scattered query recorded no repository spans: %+v", res.Spans)
	}

	// The rendered tree (what delta-client -trace prints) names every
	// hop with the router at the root.
	tree := obs.FormatSpans(res.Spans)
	if !strings.HasPrefix(tree, "router ") || !strings.Contains(tree, "epoch=0") {
		t.Errorf("rendered tree missing router root:\n%s", tree)
	}
	for _, want := range []string{"fragment shard=0", "fragment shard=1", "fragment shard=2"} {
		if !strings.Contains(tree, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, tree)
		}
	}

	// A second, identically-shaped traced query gets a distinct ID.
	res2, err := cl.Query(ctx, model.Query{
		Objects: objs, Cost: 9 * cost.MB, Tolerance: model.AnyStaleness, Time: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.TraceID == res.TraceID {
		t.Errorf("two queries share trace ID %#x", res.TraceID)
	}

	// A client dialed without WithTrace stays untraced end to end.
	plain, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	res3, err := plain.Query(ctx, model.Query{
		Objects: objs, Cost: 9 * cost.MB, Tolerance: model.AnyStaleness, Time: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res3.TraceID != 0 || len(res3.Spans) != 0 {
		t.Errorf("untraced query returned trace %#x with %d spans", res3.TraceID, len(res3.Spans))
	}
}
