package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// probes measures, after a traced pass and on its topology, what no
// span of the pass shows: the bare cost of the wire, how long an update
// takes to reach each cache tier, and — on paper-trace — what the
// simulator says the policies should have moved.
func (t *topology) probes(w *workloadSpec, in *input, opts options, m map[string]float64, rep *repetition) error {
	var queries []*model.Query
	for i := range in.events {
		if q := in.events[i].Query; q != nil {
			queries = append(queries, q)
		}
	}
	if err := probeCodec(queries, m); err != nil {
		return fmt.Errorf("%s: codec probe: %w", w.name, err)
	}
	if err := probeRoundTrip(m); err != nil {
		return fmt.Errorf("%s: round-trip probe: %w", w.name, err)
	}
	last := in.events[len(in.events)-1]
	ids := probeIDs{
		query:  model.QueryID(len(in.events) + 1),
		update: model.UpdateID(len(in.events) + 1),
		clock:  last.Time() + time.Second,
	}
	n := max(scaled(1000, opts.scale), 20)
	m["cluster.invalidation_lag_p50_us"] = 0
	m["cache.invalidation_lag_p50_us"] = 0
	m["cache.stale_answers_per_probe"] = 0
	var err error
	if t.lc != nil {
		err = t.probeRouterLag(queries, n, &ids, m, rep)
	} else {
		err = t.probeCacheLag(n, &ids, m, rep)
	}
	if err != nil {
		return fmt.Errorf("%s: invalidation-lag probe: %w", w.name, err)
	}
	for _, name := range []string{"nocache", "replica", "benefit", "vcover", "soptimal"} {
		m["sim.traffic_ratio."+name] = 0
	}
	m["sim.live_divergence"] = 0
	if in.paper != nil {
		results, err := in.paper.RunAll()
		if err != nil {
			// RunAll fails on a constraint violation by any policy.
			rep.check(false, "simulator: %v", err)
			return nil
		}
		noCache := float64(results["NoCache"].Total())
		for name, res := range results {
			m["sim.traffic_ratio."+strings.ToLower(name)] = float64(res.Total()) / noCache
		}
		simulated := m["sim.traffic_ratio.vcover"]
		divergence := (m["server.traffic_ratio"] - simulated) / simulated
		m["sim.live_divergence"] = max(divergence, -divergence)
		// Short traces leave VCover a handful of load decisions, and one
		// that lands on the other side of an in-flight update notice
		// moves the ratio by percents.
		if opts.scale >= 1 {
			rep.check(m["sim.live_divergence"] <= 0.01, "live traffic ratio %.4f diverges from the simulator's %.4f",
				m["server.traffic_ratio"], simulated)
		}
	}
	return nil
}

// probeIDs hands out query and update identities beyond the trace's.
type probeIDs struct {
	query  model.QueryID
	update model.UpdateID
	clock  time.Duration
}

func (p *probeIDs) tick() time.Duration {
	p.clock += 200 * time.Millisecond
	return p.clock
}

func median(sample []time.Duration) time.Duration {
	slices.Sort(sample)
	return quantile(sample, 0.5)
}

// probeCodec pushes this trace's queries, and answers shaped like
// theirs, through the v3 codec over a buffer: the per-message cost the
// wire adds to every hop, without a socket.
func probeCodec(queries []*model.Query, m map[string]float64) error {
	const samples = 2000
	step := max(len(queries)/samples, 1)
	var frames [][2]netproto.Frame
	for i := 0; i < len(queries); i += step {
		q, id := queries[i], uint64(i+1)
		frames = append(frames, [2]netproto.Frame{
			{Type: netproto.MsgQuery, RequestID: id, Body: netproto.QueryMsg{Query: *q}},
			{Type: netproto.MsgQueryResult, RequestID: id, Body: netproto.QueryResultMsg{
				QueryID: q.ID,
				Logical: q.Cost,
				Payload: netproto.MakePayload(netproto.DefaultScale(), q.Cost, int64(q.ID)),
				Source:  "cache",
				Elapsed: 50 * time.Microsecond,
			}},
		})
	}
	var buf bytes.Buffer
	conn := netproto.NewConn(&buf)
	conn.SetVersion(netproto.ProtoV3)
	var (
		times      = make([]time.Duration, 0, len(frames))
		wire       int
		mem0, mem1 runtime.MemStats
	)
	runtime.ReadMemStats(&mem0)
	for _, pair := range frames {
		start := time.Now()
		for _, f := range pair {
			if err := conn.Send(f); err != nil {
				return err
			}
			wire += buf.Len()
			if _, err := conn.Recv(); err != nil {
				return err
			}
		}
		times = append(times, time.Since(start))
	}
	runtime.ReadMemStats(&mem1)
	n := float64(len(frames))
	m["netproto.codec_ns_per_query"] = float64(median(times))
	m["netproto.codec_allocs_per_query"] = float64(mem1.Mallocs-mem0.Mallocs) / n
	m["netproto.wire_bytes_per_query"] = float64(wire) / n
	return nil
}

// probeRoundTrip times Session.RoundTrip against a ServeMux echo on
// loopback: socket, mux queueing and scheduler, with no handler work.
func probeRoundTrip(m map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer nc.Close()
		c := netproto.NewConn(nc)
		first, err := c.Recv()
		if err != nil {
			served <- err
			return
		}
		hello, _ := first.Body.(netproto.Hello)
		if _, err := netproto.ServeHandshake(c, hello, 0); err != nil {
			served <- err
			return
		}
		served <- netproto.ServeMux(c, 0, func(f netproto.Frame) netproto.Frame {
			return netproto.Frame{Type: f.Type, Body: f.Body}
		}, nil)
	}()
	sess, err := netproto.DialSession(ln.Addr().String(), "client", netproto.SessionConfig{})
	if err != nil {
		ln.Close()
		return err
	}
	ctx := context.Background()
	times := make([]time.Duration, 0, 2000)
	var tripErr error
	for i := 0; i < cap(times) && tripErr == nil; i++ {
		start := time.Now()
		_, tripErr = sess.RoundTrip(ctx, netproto.Frame{Type: netproto.MsgStats, Body: netproto.StatsMsg{}})
		times = append(times, time.Since(start))
	}
	sess.Close()
	ln.Close()
	if err := <-served; err != nil && tripErr == nil {
		tripErr = err
	}
	m["netproto.roundtrip_us"] = micros(median(times))
	return tripErr
}

// lagLimit is how long an update may take to reach a cache tier before
// the run counts as wrong.
const lagLimit = 5 * time.Millisecond

// probeRouterLag measures update arrival at the repository → eviction
// from the router's result cache: answer a query (which caches its
// merged result), update one of its objects, and poll the router's
// invalidation counter.
func (t *topology) probeRouterLag(queries []*model.Query, n int, ids *probeIDs, m map[string]float64, rep *repetition) error {
	ctx := context.Background()
	r := t.lc.Router
	lags := make([]time.Duration, 0, n)
	step := max(len(queries)/n, 1)
	for i := 0; i < len(queries) && len(lags) < n; i += step {
		q := *queries[i]
		ids.query++
		q.ID, q.Time = ids.query, ids.tick()
		if _, err := t.clients[0].Query(ctx, q); err != nil {
			return err
		}
		base := r.ResultCacheInvalidations()
		ids.update++
		u := model.Update{ID: ids.update, Object: q.Objects[0], Cost: 4 * cost.KB, Time: ids.tick()}
		start := time.Now()
		t.repo.ApplyUpdate(u)
		for r.ResultCacheInvalidations() == base {
			if time.Since(start) > time.Second {
				return fmt.Errorf("update on object %d never evicted the cached result of query %d", u.Object, q.ID)
			}
			runtime.Gosched()
		}
		lags = append(lags, time.Since(start))
	}
	p50 := median(lags)
	m["cluster.invalidation_lag_p50_us"] = micros(p50)
	rep.check(p50 <= lagLimit, "router invalidation lag p50 %v exceeds %v", p50, lagLimit)
	return nil
}

// probeCacheLag measures update arrival at the repository → the cache
// acting on it: update a resident object, then ask tolerance-zero
// queries about it until the cache pays for the update. The answers it
// gave before that were stale. The lag is too noisy to gate beyond the
// limit and too important to hide: a change that batches notices would
// otherwise read as a hit-rate win.
func (t *topology) probeCacheLag(n int, ids *probeIDs, m map[string]float64, rep *repetition) error {
	ctx := context.Background()
	lags := make([]time.Duration, 0, n)
	var (
		stale    int
		resident []model.ObjectID
	)
	for i := 0; i < n; i++ {
		// Probing moves the policy; look again at what it holds.
		if i%100 == 0 {
			resident = t.cache.Stats().Cached
			if len(resident) == 0 {
				return nil
			}
		}
		obj := resident[i%len(resident)]
		base := t.cache.Ledger().Total()
		ids.update++
		u := model.Update{ID: ids.update, Object: obj, Cost: 4 * cost.KB, Time: ids.tick()}
		start := time.Now()
		t.repo.ApplyUpdate(u)
		for {
			ids.query++
			q := model.Query{ID: ids.query, Objects: []model.ObjectID{obj}, Cost: 64 * cost.KB, Tolerance: model.NoTolerance, Time: ids.tick()}
			if _, err := t.clients[0].Query(ctx, q); err != nil {
				return err
			}
			if t.cache.Ledger().Total() != base {
				break
			}
			stale++
			if time.Since(start) > time.Second {
				return fmt.Errorf("cache never paid for update %d on resident object %d", u.ID, obj)
			}
		}
		lags = append(lags, time.Since(start))
	}
	p50 := median(lags)
	m["cache.invalidation_lag_p50_us"] = micros(p50)
	m["cache.stale_answers_per_probe"] = float64(stale) / float64(n)
	rep.check(p50 <= lagLimit, "cache invalidation lag p50 %v exceeds %v", p50, lagLimit)
	return nil
}
