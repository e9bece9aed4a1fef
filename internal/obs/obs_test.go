package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/netproto"
)

// TestNilRegistryContract pins the nil-disable contract end to end: a
// nil registry hands out nil instruments, every mutating method no-ops,
// and the exposition is valid (empty).
func TestNilRegistryContract(t *testing.T) {
	var r *Registry
	c := r.NewCounter("x_total", "")
	g := r.NewGauge("x", "")
	h := r.NewHistogram("x_seconds", "")
	r.NewCounterFunc("y_total", "", func() float64 { return 1 })
	r.NewGaugeFunc("y", "", func() float64 { return 1 })
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}
	c.Add(5)
	c.Inc()
	g.Set(7)
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatalf("nil exposition: %v", err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry exposed %q", b.String())
	}
	var ring *TraceRing
	ring.Add(1, nil)
	if got := ring.Snapshot(); got != nil {
		t.Fatalf("nil ring snapshot = %v", got)
	}
	var ds *DebugServer
	if ds.Addr() != "" || ds.Close() != nil {
		t.Fatal("nil debug server misbehaved")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "help")
	c.Add(2)
	c.Inc()
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	g := r.NewGauge("g", "help")
	g.Set(9)
	g.Set(4)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	r.NewCounter("dup_total", "")
}

// TestCounterNameMustEndInTotal pins the naming rule a cluster
// aggregate relies on to tell a counter's sum from a gauge's maximum.
func TestCounterNameMustEndInTotal(t *testing.T) {
	for name, register := range map[string]func(r *Registry){
		"NewCounter":     func(r *Registry) { r.NewCounter("x", "") },
		"NewCounterFunc": func(r *Registry) { r.NewCounterFunc("x", "", func() float64 { return 0 }) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s(\"x\") did not panic", name)
				}
			}()
			register(NewRegistry())
		})
	}
}

// TestValues pins what a node's stats answer carries: every counter
// and gauge sample, in registration order, and no histogram.
func TestValues(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("v_ops_total", "").Add(3)
	r.NewHistogram("v_seconds", "").Observe(time.Second)
	r.NewGauge("v_resident", "").Set(-2)
	r.NewCounterFunc("v_fn_total", "", func() float64 { return 7.5 })
	r.NewGaugeFunc("v_fn", "", func() float64 { return 0.25 })
	want := []Sample{
		{Name: "v_ops_total", Value: 3},
		{Name: "v_resident", Value: -2},
		{Name: "v_fn_total", Value: 7.5},
		{Name: "v_fn", Value: 0.25},
	}
	if got := r.Values(); !slices.Equal(got, want) {
		t.Errorf("Values() = %v, want %v", got, want)
	}
	var nilReg *Registry
	if got := nilReg.Values(); got != nil {
		t.Errorf("nil registry Values() = %v, want nil", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "")
	// DefBuckets has bounds at 2.5, 5, 25, 50, 250 and 500 ms: 50 obs
	// in (2.5ms, 5ms], 40 in (25ms, 50ms], 10 in (250ms, 500ms].
	for i := 0; i < 50; i++ {
		h.Observe(4 * time.Millisecond)
	}
	for i := 0; i < 40; i++ {
		h.Observe(40 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(400 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if p50 := h.Quantile(0.50); p50 <= 0.0025 || p50 > 0.005 {
		t.Errorf("p50 = %v, want in (0.0025, 0.005]", p50)
	}
	if p90 := h.Quantile(0.90); p90 <= 0.025 || p90 > 0.05 {
		t.Errorf("p90 = %v, want in (0.025, 0.05]", p90)
	}
	if p99 := h.Quantile(0.99); p99 <= 0.25 || p99 > 0.5 {
		t.Errorf("p99 = %v, want in (0.25, 0.5]", p99)
	}
	// An over-the-top observation clamps to the highest finite bound.
	h.Observe(time.Hour)
	if q, top := h.Quantile(0.9999), DefBuckets[len(DefBuckets)-1]; q != top {
		t.Errorf("+Inf quantile = %v, want clamp to %v", q, top)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("d_seconds", "")
	h.Observe(time.Millisecond)
	fams := mustParse(t, r)
	fam := fams["d_seconds"]
	if fam == nil || fam.Type != "histogram" {
		t.Fatalf("d_seconds family = %+v", fam)
	}
	// One bucket line per DefBuckets bound, plus +Inf, _sum, _count.
	if got, want := len(fam.Samples), len(DefBuckets)+3; got != want {
		t.Fatalf("histogram sample count = %d, want %d", got, want)
	}
}

func mustParse(t *testing.T, r *Registry) map[string]*Family {
	t.Helper()
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatalf("write exposition: %v", err)
	}
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse exposition:\n%s\n%v", b.String(), err)
	}
	return fams
}

// TestExpositionRoundTrip renders a registry holding every instrument
// kind and re-parses it: every family and value must survive, and the
// histogram must satisfy the parser's invariants.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("rt_ops_total", "ops so far")
	c.Add(42)
	g := r.NewGauge("rt_resident", "resident objects")
	g.Set(-3)
	r.NewCounterFunc("rt_fn_total", "computed counter", func() float64 { return 7.5 })
	r.NewGaugeFunc("rt_fn", "computed gauge", func() float64 { return 0.25 })
	h := r.NewHistogram("rt_seconds", "latency")
	h.Observe(time.Second)
	h.Observe(2 * time.Minute)

	fams := mustParse(t, r)
	checks := []struct {
		family, sample string
		typ            string
		want           float64
	}{
		{"rt_ops_total", "rt_ops_total", "counter", 42},
		{"rt_resident", "rt_resident", "gauge", -3},
		{"rt_fn_total", "rt_fn_total", "counter", 7.5},
		{"rt_fn", "rt_fn", "gauge", 0.25},
		{"rt_seconds", `rt_seconds_bucket{le="0.5"}`, "histogram", 0},
		{"rt_seconds", `rt_seconds_bucket{le="1"}`, "histogram", 1},
		{"rt_seconds", `rt_seconds_bucket{le="60"}`, "histogram", 1},
		{"rt_seconds", `rt_seconds_bucket{le="+Inf"}`, "histogram", 2},
		{"rt_seconds", "rt_seconds_count", "histogram", 2},
		{"rt_seconds", "rt_seconds_sum", "histogram", 121},
	}
	for _, ck := range checks {
		fam := fams[ck.family]
		if fam == nil {
			t.Fatalf("family %s missing", ck.family)
		}
		if fam.Type != ck.typ {
			t.Errorf("family %s type = %s, want %s", ck.family, fam.Type, ck.typ)
		}
		if got, ok := fam.Samples[ck.sample]; !ok || got != ck.want {
			t.Errorf("sample %s = %v (present=%v), want %v", ck.sample, got, ok, ck.want)
		}
	}
}

// TestParseExpositionRejects feeds the parser the malformed shapes it
// exists to catch.
func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":      "a_total 1\n# TYPE a_total counter\n",
		"duplicate TYPE":          "# TYPE a counter\n# TYPE a counter\na 1\n",
		"bad metric name":         "# TYPE 9bad counter\n9bad 1\n",
		"bad type":                "# TYPE a teapot\na 1\n",
		"bad value":               "# TYPE a counter\na one\n",
		"duplicate sample":        "# TYPE a counter\na 1\na 2\n",
		"unterminated labels":     "# TYPE a counter\na{x=\"1\" 2\n",
		"histogram no +Inf":       "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram not cumul":     "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"histogram missing sum":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"histogram inf vs count":  "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
		"histogram missing count": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
	}
	for name, input := range cases {
		if _, err := ParseExposition(strings.NewReader(input)); err == nil {
			t.Errorf("%s: parser accepted %q", name, input)
		}
	}
}

func TestTraceRing(t *testing.T) {
	ring := NewTraceRing()
	ring.Add(0, []netproto.TraceSpan{{Name: "router"}}) // untraced: ignored
	const last = DefaultTraceRing + 2
	for id := uint64(1); id <= last; id++ {
		ring.Add(id, []netproto.TraceSpan{{Name: "cache", Objects: int(id)}})
	}
	snap := ring.Snapshot()
	if len(snap) != DefaultTraceRing {
		t.Fatalf("ring holds %d traces, want %d", len(snap), DefaultTraceRing)
	}
	// Newest first, oldest two evicted.
	for i, want := range []uint64{last, last - 1, last - 2} {
		if snap[i].ID != want {
			t.Errorf("snapshot[%d].ID = %d, want %d", i, snap[i].ID, want)
		}
	}
	if snap[DefaultTraceRing-1].ID != 3 {
		t.Errorf("oldest kept trace = %d, want 3", snap[DefaultTraceRing-1].ID)
	}
	if _, ok := ring.Get(2); ok {
		t.Error("evicted trace still retrievable")
	}
	got, ok := ring.Get(4)
	if !ok || len(got.Spans) != 1 || got.Spans[0].Objects != 4 {
		t.Fatalf("Get(4) = %+v, %v", got, ok)
	}
	// The ring copies spans: mutating the caller's slice after Add must
	// not reach the stored trace.
	spans := []netproto.TraceSpan{{Name: "cache"}}
	ring.Add(last+1, spans)
	spans[0].Name = "mutated"
	if got, _ := ring.Get(last + 1); got.Spans[0].Name != "cache" {
		t.Error("ring aliased the caller's span slice")
	}
}

func TestFormatSpans(t *testing.T) {
	spans := []netproto.TraceSpan{
		{Name: "router", Node: "r:1", Shard: -1, Epoch: 0, Fragments: 2, Objects: 3,
			Source: "mixed", Detail: "cover-cache=hit", Elapsed: 2 * time.Millisecond},
		{Name: "fragment", Node: "s:1", Shard: 0, Objects: 2, Source: "cache",
			Elapsed: time.Millisecond},
		{Name: "fragment", Node: "s:2", Shard: 1, Objects: 1, Source: "repository",
			Elapsed: time.Millisecond},
		{Name: "repository", Node: "repo:1", Shard: -1, Objects: 1,
			Source: "repository", Elapsed: 500 * time.Microsecond},
	}
	out := FormatSpans(spans)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	// Router at the root — epoch always shown, even epoch 0.
	if !strings.HasPrefix(lines[0], "router ") || !strings.Contains(lines[0], "epoch=0") {
		t.Errorf("router line = %q", lines[0])
	}
	if !strings.Contains(lines[0], "fragments=2") || !strings.Contains(lines[0], "cover-cache=hit") {
		t.Errorf("router line missing scatter facts: %q", lines[0])
	}
	// Fragments indented one level, repository two.
	if !strings.HasPrefix(lines[1], "  fragment shard=0") {
		t.Errorf("fragment line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "    repository") {
		t.Errorf("repository line = %q", lines[3])
	}

	// Without a router span the whole tree shifts left.
	solo := FormatSpans(spans[1:2])
	if !strings.HasPrefix(solo, "fragment ") {
		t.Errorf("routerless tree not shifted: %q", solo)
	}
}

// TestDebugServer boots the real debug listener and exercises every
// mounted endpoint over HTTP.
func TestDebugServer(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dbg_total", "x").Add(3)
	ring := NewTraceRing()
	ring.Add(11, []netproto.TraceSpan{{Name: "cache", Shard: -1}})
	ds, err := ServeDebug("127.0.0.1:0", r, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	fams, err := ParseExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("scraped exposition invalid: %v", err)
	}
	if fams["dbg_total"] == nil || fams["dbg_total"].Samples["dbg_total"] != 3 {
		t.Fatalf("scrape missing dbg_total: %v", fams)
	}

	if resp, body := get("/healthz"); resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	_, body = get("/debug/traces")
	var traces []Trace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/debug/traces JSON: %v (%q)", err, body)
	}
	if len(traces) != 1 || traces[0].ID != 11 {
		t.Fatalf("/debug/traces = %+v", traces)
	}
	_, body = get("/debug/traces?id=11")
	var one Trace
	if err := json.Unmarshal([]byte(body), &one); err != nil || one.ID != 11 {
		t.Fatalf("/debug/traces?id=11 = %q (%v)", body, err)
	}
	if resp, _ := get("/debug/traces?id=999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing trace returned %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("/debug/traces?id=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad trace id returned %d, want 400", resp.StatusCode)
	}

	if resp, _ := get("/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
	if resp, _ := get("/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}

	if err := ds.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("debug server still answering after Close")
	}
}

// TestHistogramExpositionConsistentUnderObserve renders and parses the
// exposition while several goroutines observe: every rendering must
// parse, so its +Inf bucket always equals its _count, whatever the
// observers were doing between the two.
func TestHistogramExpositionConsistentUnderObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("busy_seconds", "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := time.Duration(g+1) * time.Millisecond
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(d)
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	var b strings.Builder
	for i := range 1000 {
		b.Reset()
		if err := r.WriteExposition(&b); err != nil {
			t.Fatalf("write exposition: %v", err)
		}
		if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
			t.Fatalf("rendering %d: %v", i, err)
		}
	}
}
