// Package client provides the astronomer-facing library for querying a
// Delta deployment: it connects to the middleware cache, submits
// queries with currency requirements, and returns results along with
// where they were answered (cache or repository).
//
// The client is safe for concurrent use by any number of goroutines.
// Requests are multiplexed over a small connection pool and correlated
// by RequestID, so many queries can be in flight at once: issue them
// from as many goroutines as needed. Every call takes a context for
// cancellation and deadlines. Dial options configure the pool size and
// timeouts.
package client

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// Option configures Dial.
type Option func(*options)

type options struct {
	poolSize       int
	requestTimeout time.Duration
	trace          bool
	observer       func(time.Duration)
}

// WithPoolSize sets how many connections back the session (default 1;
// each connection multiplexes, so small values go far).
func WithPoolSize(n int) Option { return func(o *options) { o.poolSize = n } }

// WithRequestTimeout applies a default per-request deadline when the
// caller's context has none (default: no deadline).
func WithRequestTimeout(d time.Duration) Option { return func(o *options) { o.requestTimeout = d } }

// WithTrace stamps every query with a fresh trace ID, so each hop
// (router, shard cache, repository) records its span and the Result
// carries the assembled fan-out tree.
func WithTrace() Option { return func(o *options) { o.trace = true } }

// WithQueryObserver calls fn with the client-observed wall-clock
// latency of every successful query — the end-to-end figure including
// the network, where Result.Elapsed is only the server-side handling
// time. fn must be safe for concurrent use.
func WithQueryObserver(fn func(time.Duration)) Option {
	return func(o *options) { o.observer = fn }
}

// Client is a connection to the middleware cache, safe for concurrent
// use.
type Client struct {
	sess           *netproto.Session
	requestTimeout time.Duration
	nextID         atomic.Int64
	trace          bool
	traceSeed      uint64
	traceCtr       atomic.Uint64
	observer       func(time.Duration)
}

// Dial connects to a cache's or a cluster router's client endpoint
// (a router speaks the single-cache protocol). Refused connections
// are retried with capped exponential backoff plus jitter for
// netproto.StartupDialRetry, the window every node gives its peers, so
// dialing a node that is still binding its listener (a script starting
// client and cache together) succeeds instead of failing the race.
// Other dial failures fail at once.
func Dial(addr string, opts ...Option) (*Client, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	sess, err := netproto.DialSession(addr, "client", netproto.SessionConfig{
		PoolSize:  o.poolSize,
		DialRetry: netproto.StartupDialRetry,
	})
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return &Client{
		sess:           sess,
		requestTimeout: o.requestTimeout,
		trace:          o.trace,
		// Seeded from the wall clock so concurrent clients against the
		// same deployment almost never collide in a node's trace ring.
		traceSeed: uint64(time.Now().UnixNano()),
		observer:  o.observer,
	}, nil
}

// Close terminates the connection; in-flight calls fail.
func (c *Client) Close() error { return c.sess.Close() }

// Result is a query answer.
type Result struct {
	// Source reports who answered: "cache" or "repository".
	Source string
	// Logical is the result's logical size (the traffic the answer cost
	// if it was shipped).
	Logical int64
	// Rows is a sample of result rows.
	Rows []netproto.ResultRow
	// Elapsed is the server-side handling time.
	Elapsed time.Duration
	// Degraded reports a partial answer: one or more cluster shards
	// failed, so the result covers only the surviving shards' objects.
	// MissingShards lists the failed shard indices. Always false when
	// talking to a single cache.
	Degraded      bool
	MissingShards []int
	// TraceID and Spans carry the query's fan-out trace when the client
	// was dialed WithTrace and the serving nodes record spans: the
	// router's scatter/gather span, each shard fragment's, and the
	// repository's for shipped work. Empty against untraced peers.
	TraceID uint64
	Spans   []netproto.TraceSpan
}

// Query submits a query and waits for its result.
func (c *Client) Query(ctx context.Context, q model.Query) (*Result, error) {
	return c.query(ctx, netproto.QueryMsg{Query: q})
}

// query is the shared round trip behind Query and QueryRegion.
func (c *Client) query(ctx context.Context, msg netproto.QueryMsg) (*Result, error) {
	if msg.Query.ID == 0 {
		msg.Query.ID = model.QueryID(c.nextID.Add(1))
	}
	if c.trace && msg.TraceID == 0 {
		msg.TraceID = c.traceSeed + c.traceCtr.Add(1)
		if msg.TraceID == 0 { // zero means untraced on the wire
			msg.TraceID = 1
		}
	}
	start := time.Now()
	reply, err := c.roundTrip(ctx, netproto.Frame{Type: netproto.MsgQuery, Body: msg})
	if err != nil {
		return nil, fmt.Errorf("client: query: %w", err)
	}
	body, ok := reply.Body.(netproto.QueryResultMsg)
	if !ok {
		return nil, fmt.Errorf("client: unexpected reply %s", reply.Type)
	}
	if c.observer != nil {
		c.observer(time.Since(start))
	}
	return &Result{
		Source:        body.Source,
		Logical:       int64(body.Logical),
		Rows:          body.Rows,
		Elapsed:       body.Elapsed,
		Degraded:      body.Degraded,
		MissingShards: body.MissingShards,
		TraceID:       body.TraceID,
		Spans:         body.Spans,
	}, nil
}

// QueryRegion submits a query restricted to a sky cap (center RA/Dec
// and radius, in degrees) instead of an explicit object list: the
// serving cache or router resolves the region to B(q) from its
// survey's HTM cover, so the client needs no local copy of the
// object universe. q.Objects must be empty; q.Cost still names ν(q).
func (c *Client) QueryRegion(ctx context.Context, ra, dec, radiusDeg float64, q model.Query) (*Result, error) {
	if len(q.Objects) != 0 {
		return nil, fmt.Errorf("client: region query must not carry an object list")
	}
	return c.query(ctx, netproto.QueryMsg{
		Query:  q,
		Region: netproto.SkyRegion{RA: ra, Dec: dec, RadiusDeg: radiusDeg},
	})
}

// AddObjects publishes newly born data objects into the deployment:
// the receiving cache or router forwards them to the repository (the
// source of truth for the growing universe) and admits them into its
// own routing/policy universe before replying, so the publisher can
// query its newborns the moment this returns. Publication is
// idempotent — births already known are skipped — and the returned
// count is how many the repository newly ingested.
func (c *Client) AddObjects(ctx context.Context, births []model.Birth) (int, error) {
	reply, err := c.roundTrip(ctx, netproto.Frame{
		Type: netproto.MsgObjectBirth,
		Body: netproto.ObjectBirthMsg{Births: births},
	})
	if err != nil {
		return 0, fmt.Errorf("client: add objects: %w", err)
	}
	body, ok := reply.Body.(netproto.ObjectBirthMsg)
	if !ok {
		return 0, fmt.Errorf("client: unexpected reply %s", reply.Type)
	}
	return body.Accepted, nil
}

// Survey rebuilds the deployment's universe from what its repository
// serves, through whichever node the client dialed (MsgUniverse): the
// survey its config builds, grown by every birth in publication order,
// so the mirror's NextID is the repository's.
func (c *Client) Survey(ctx context.Context) (*catalog.Survey, error) {
	u, err := netproto.FetchUniverse(ctx, c.sess)
	if err != nil {
		return nil, fmt.Errorf("client: universe: %w", err)
	}
	survey, err := catalog.NewSurvey(u.Survey)
	if err != nil {
		return nil, err
	}
	if _, err := survey.AddObjects(u.Births); err != nil {
		return nil, fmt.Errorf("client: rebuild the universe: %w", err)
	}
	return survey, nil
}

// Stats fetches the node's statistics. A router answers with the
// cluster aggregate plus each shard's samples labelled {shard="i"}.
func (c *Client) Stats(ctx context.Context) (*netproto.StatsMsg, error) {
	reply, err := c.roundTrip(ctx, netproto.Frame{
		Type: netproto.MsgStats,
		Body: netproto.StatsMsg{},
	})
	if err != nil {
		return nil, fmt.Errorf("client: stats: %w", err)
	}
	stats, ok := reply.Body.(netproto.StatsMsg)
	if !ok {
		return nil, fmt.Errorf("client: unexpected reply %s", reply.Type)
	}
	return &stats, nil
}

// Resize asks a cluster router to take the cluster to a new shard
// address list, live (see cluster.ResizeSpec for the semantics:
// continuing addresses keep their cached state, new addresses join
// warm with what their objects' old primaries held, missing addresses
// are drained). It blocks until the resize completes and returns the
// final rebalance status; pass a context with a deadline generous
// enough for every shard's reshard. Only
// routers answer it — a single cache replies with an error.
func (c *Client) Resize(ctx context.Context, shards []string) (*netproto.RebalanceStatusMsg, error) {
	reply, err := c.sess.RoundTrip(ctx, netproto.Frame{
		Type: netproto.MsgAdminResize,
		Body: netproto.AdminResizeMsg{Shards: shards},
	})
	if err != nil {
		return nil, fmt.Errorf("client: resize: %w", err)
	}
	st, ok := reply.Body.(netproto.RebalanceStatusMsg)
	if !ok {
		return nil, fmt.Errorf("client: unexpected reply %s", reply.Type)
	}
	return &st, nil
}

// RebalanceStatus fetches a cluster router's rebalance progress view
// (phase, routing epoch, moved objects/bytes, last error).
func (c *Client) RebalanceStatus(ctx context.Context) (*netproto.RebalanceStatusMsg, error) {
	reply, err := c.roundTrip(ctx, netproto.Frame{
		Type: netproto.MsgRebalanceStatus,
		Body: netproto.RebalanceStatusMsg{},
	})
	if err != nil {
		return nil, fmt.Errorf("client: rebalance status: %w", err)
	}
	st, ok := reply.Body.(netproto.RebalanceStatusMsg)
	if !ok {
		return nil, fmt.Errorf("client: unexpected reply %s", reply.Type)
	}
	return &st, nil
}

// roundTrip bounds a request by the client's request timeout unless ctx
// carries a deadline of its own.
func (c *Client) roundTrip(ctx context.Context, f netproto.Frame) (netproto.Frame, error) {
	timeout := c.requestTimeout
	if _, ok := ctx.Deadline(); ok {
		timeout = 0
	}
	return c.sess.RoundTripTimeout(ctx, f, timeout)
}
