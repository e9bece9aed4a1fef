// Package obs is Delta's dependency-free observability kit: a metrics
// registry (atomic counters, gauges, fixed-bucket latency histograms),
// Prometheus text-format exposition with a matching parser, a bounded
// in-memory ring of per-query fan-out traces, and the per-node debug
// HTTP server that exposes all of it (/metrics, /healthz,
// /debug/traces, /debug/pprof). Every node type — repository,
// middleware cache shard, cluster router — threads one Registry and
// one TraceRing through its hot paths.
//
// Instrumentation is nil-tolerant end to end: every mutating method
// (Counter.Add, Histogram.Observe, TraceRing.Add, ...) is a no-op on a
// nil receiver, and a nil *Registry hands out nil instruments. A node
// built with observability disabled therefore carries nil obs fields
// and its instrumented call sites need no branches.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deltacache/delta/internal/netproto"
)

// DefBuckets is the default latency histogram layout: roughly
// exponential from 100µs to 60s, wide enough for an in-process
// loopback round trip and a struggling wide-area scatter alike.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Registry holds a node's metrics in registration order. All methods
// are safe for concurrent use; a nil *Registry hands out nil
// instruments (whose methods no-op), so disabling observability is
// just leaving the registry nil.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// metric is anything the registry can expose.
type metric interface {
	meta() (name, help, typ string)
	samples() []Sample
}

// Sample is one exposition line: a metric name (with any label suffix
// already rendered, e.g. `delta_x_bucket{le="0.5"}`) and its value. It
// is the wire's StatsMsg sample, so Values needs no conversion.
type Sample = netproto.Sample

// register appends m under its name, panicking on duplicates (a
// duplicate registration is a programming error, and Prometheus
// exposition with duplicate families is invalid) and on a counter not
// named *_total, for a cluster aggregate sums exactly those samples.
func (r *Registry) register(name string, m metric) {
	if _, _, typ := m.meta(); typ == "counter" && !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: counter %q does not end in _total", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// Values returns every counter and gauge sample in registration order:
// what a node's StatsMsg carries. Histograms stay on /metrics.
func (r *Registry) Values() []Sample {
	var out []Sample
	for _, m := range r.snapshot() {
		if _, _, typ := m.meta(); typ != "histogram" {
			out = append(out, m.samples()...)
		}
	}
	return out
}

// snapshot copies the metric list for iteration outside the lock.
func (r *Registry) snapshot() []metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]metric(nil), r.metrics...)
}

// Counter is a monotonically increasing value.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter registers a counter. Nil registry returns nil.
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) meta() (string, string, string) { return c.name, c.help, "counter" }
func (c *Counter) samples() []Sample {
	return []Sample{{Name: c.name, Value: float64(c.v.Load())}}
}

// Gauge is a value that can go up and down.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge registers a gauge. Nil registry returns nil.
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// Set replaces the gauge's value. No-op on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) meta() (string, string, string) { return g.name, g.help, "gauge" }
func (g *Gauge) samples() []Sample {
	return []Sample{{Name: g.name, Value: float64(g.v.Load())}}
}

// funcMetric exposes a value computed at scrape time. typ is "gauge"
// or "counter" (a counter-typed func reads a count its owner keeps
// under its own lock, e.g. a traffic ledger or a cover cache).
type funcMetric struct {
	name, help, typ string
	fn              func() float64
}

// NewGaugeFunc registers a scrape-time gauge. Nil registry no-ops.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, &funcMetric{name: name, help: help, typ: "gauge", fn: fn})
}

// NewCounterFunc registers a scrape-time view of a counter maintained
// elsewhere. Nil registry no-ops.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, &funcMetric{name: name, help: help, typ: "counter", fn: fn})
}

func (f *funcMetric) meta() (string, string, string) { return f.name, f.help, f.typ }
func (f *funcMetric) samples() []Sample {
	return []Sample{{Name: f.name, Value: f.fn()}}
}

// Histogram is a latency histogram over DefBuckets with cumulative
// bucket counts, a sum, and quantile extraction. Observations are
// durations; bounds are seconds. The observation count is the bucket
// total, never a counter of its own, so a reading taken while Observe
// runs still has a +Inf bucket equal to its count.
type Histogram struct {
	name, help string
	counts     []atomic.Int64 // len(DefBuckets)+1; last bucket is +Inf
	sumNanos   atomic.Int64
}

// NewHistogram registers a histogram over DefBuckets. Nil registry
// returns nil.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{
		name:   name,
		help:   help,
		counts: make([]atomic.Int64, len(DefBuckets)+1),
	}
	r.register(name, h)
	return h
}

// Observe records one duration. No-op on nil, so instrumented call
// sites need no obs-enabled branch.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	i := sort.SearchFloat64s(DefBuckets, s) // first bound >= s (le semantics)
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
}

// Count reports total observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile extracts an approximate quantile (0 < p < 1) in seconds by
// linear interpolation inside the bucket holding the target rank. The
// open-ended +Inf bucket reports the highest finite bound (the usual
// Prometheus histogram_quantile clamp). Returns 0 with no
// observations or a nil receiver.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	// One load per bucket, so the rank and the walk read the same counts.
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	var cum int64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(DefBuckets) { // +Inf bucket
				return DefBuckets[len(DefBuckets)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = DefBuckets[i-1]
			}
			hi := DefBuckets[i]
			frac := min(max((rank-float64(cum))/float64(n), 0), 1)
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return DefBuckets[len(DefBuckets)-1]
}

func (h *Histogram) meta() (string, string, string) { return h.name, h.help, "histogram" }

func (h *Histogram) samples() []Sample {
	out := make([]Sample, 0, len(h.counts)+2)
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(DefBuckets) {
			le = formatFloat(DefBuckets[i])
		}
		out = append(out, Sample{
			Name:  fmt.Sprintf("%s_bucket{le=%q}", h.name, le),
			Value: float64(cum),
		})
	}
	out = append(out,
		Sample{Name: h.name + "_sum", Value: time.Duration(h.sumNanos.Load()).Seconds()},
		Sample{Name: h.name + "_count", Value: float64(cum)},
	)
	return out
}
