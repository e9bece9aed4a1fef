package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/deltacache/delta/internal/netproto"
)

// DefaultTraceRing is the per-node trace ring capacity: big enough to
// hold a debugging session's worth of traced queries, small enough
// that an always-tracing client cannot balloon a node's memory.
const DefaultTraceRing = 256

// Trace is one traced query's record in a node's ring: the spans that
// node observed (for a router, the whole fan-out; for a shard, its own
// fragment work).
type Trace struct {
	ID    uint64               `json:"id"`
	Start time.Time            `json:"start"`
	Spans []netproto.TraceSpan `json:"spans"`
}

// TraceRing is a bounded, concurrency-safe ring of recent traces,
// newest overwriting oldest. A nil ring ignores Adds and snapshots
// empty, so tracing piggybacks on the same nil-disable contract as the
// metrics registry.
type TraceRing struct {
	mu   sync.Mutex
	buf  []Trace
	next int
	n    int
}

// NewTraceRing builds a ring holding up to DefaultTraceRing traces.
func NewTraceRing() *TraceRing {
	return &TraceRing{buf: make([]Trace, DefaultTraceRing)}
}

// Add records one traced query's spans (copied, so callers may reuse
// the slice). No-op on a nil ring or an untraced (zero) ID.
func (r *TraceRing) Add(id uint64, spans []netproto.TraceSpan) {
	if r == nil || id == 0 {
		return
	}
	t := Trace{ID: id, Start: time.Now(), Spans: append([]netproto.TraceSpan(nil), spans...)}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Snapshot returns the ring's traces, newest first. Empty on nil.
func (r *TraceRing) Snapshot() []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Trace, 0, r.n)
	for i := 0; i < r.n; i++ {
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// Get returns the newest trace recorded under id.
func (r *TraceRing) Get(id uint64) (Trace, bool) {
	for _, t := range r.Snapshot() {
		if t.ID == id {
			return t, true
		}
	}
	return Trace{}, false
}

// Handler serves the ring as JSON at /debug/traces: the whole ring
// newest-first, or one trace with ?id=N (404 when absent). Safe on a
// nil ring (always an empty list).
func (r *TraceRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if idStr := req.URL.Query().Get("id"); idStr != "" {
			id, err := strconv.ParseUint(idStr, 10, 64)
			if err != nil {
				http.Error(w, "bad id", http.StatusBadRequest)
				return
			}
			t, ok := r.Get(id)
			if !ok {
				http.Error(w, "trace not found", http.StatusNotFound)
				return
			}
			json.NewEncoder(w).Encode(t)
			return
		}
		traces := r.Snapshot()
		if traces == nil {
			traces = []Trace{}
		}
		json.NewEncoder(w).Encode(traces)
	})
}

// spanDepth maps a span name to its nesting depth in the fan-out tree:
// the router scatter at the root, fragment/cache work one level in,
// and repository work (shipped queries, object loads) under the
// fragment that triggered it.
func spanDepth(name string) int {
	switch name {
	case "router":
		return 0
	case "fragment", "cache":
		return 1
	case "repository", "load":
		return 2
	default:
		return 1
	}
}

// FormatSpans renders a traced query's spans as an indented fan-out
// tree, in span order, nesting by span kind. Queries that never
// crossed a router (client → single cache) shift the whole tree one
// level left.
func FormatSpans(spans []netproto.TraceSpan) string {
	shift := 1
	for _, s := range spans {
		if s.Name == "router" {
			shift = 0
			break
		}
	}
	var b strings.Builder
	for _, s := range spans {
		depth := spanDepth(s.Name) - shift
		if depth < 0 {
			depth = 0
		}
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.Name)
		if s.Shard >= 0 {
			fmt.Fprintf(&b, " shard=%d", s.Shard)
		}
		if s.Name == "router" || s.Epoch > 0 {
			// A fresh cluster routes at epoch 0; the router span still
			// names it so the tree always shows which routing table won.
			fmt.Fprintf(&b, " epoch=%d", s.Epoch)
		}
		if s.Fragments > 0 {
			fmt.Fprintf(&b, " fragments=%d", s.Fragments)
		}
		if s.Objects > 0 {
			fmt.Fprintf(&b, " objects=%d", s.Objects)
		}
		if s.Source != "" {
			fmt.Fprintf(&b, " source=%s", s.Source)
		}
		if s.Detail != "" {
			fmt.Fprintf(&b, " %s", s.Detail)
		}
		fmt.Fprintf(&b, " elapsed=%s", s.Elapsed)
		if s.Node != "" {
			fmt.Fprintf(&b, " node=%s", s.Node)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
