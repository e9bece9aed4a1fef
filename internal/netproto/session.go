package netproto

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// RemoteError is a failure the remote side reported in an ErrorMsg
// frame (as opposed to a transport failure).
type RemoteError struct {
	Message string
}

func (e *RemoteError) Error() string { return e.Message }

// SessionConfig parameterizes DialSession and DialConn (which ignores
// PoolSize).
type SessionConfig struct {
	// PoolSize is how many TCP connections back the session. Each
	// connection multiplexes any number of in-flight requests, so the
	// pool mainly spreads encode/flush work; small values (2–4)
	// suffice. Defaults to 1.
	PoolSize int
	// DialTimeout bounds each connection attempt. Defaults to 5s.
	DialTimeout time.Duration
	// DialRetry, when positive, keeps retrying a refused connection
	// for up to this total elapsed time with capped exponential
	// backoff and jitter. Connection-refused is the transient race of
	// a dialer starting alongside its server (a cluster router racing
	// shard startup, a client racing the router); other dial failures
	// (no route, timeout, DNS) still fail immediately. Zero disables
	// retrying.
	DialRetry time.Duration
}

// StartupDialRetry is the DialRetry of every dial made to a peer that
// may be starting alongside it: a cache's repository session and
// subscription, a router's shard links, repository session and
// subscription, and client.Dial.
const StartupDialRetry = 5 * time.Second

// Session is a concurrency-safe request/response channel to a Delta
// node. It multiplexes: every request gets a fresh RequestID, requests
// round-robin across a small connection pool, a per-connection reader
// goroutine demultiplexes replies by RequestID, and any number of
// goroutines may call RoundTrip concurrently.
type Session struct {
	addr, role string
	cfg        SessionConfig
	conns      []*sessionConn
	reqID      atomic.Uint64
	next       atomic.Uint64

	closeOnce sync.Once
	closed    atomic.Bool
}

// sessionConn is one pooled connection with its demux state. c is nil
// once its reader has failed, until Redial replaces it.
type sessionConn struct {
	mu      sync.Mutex
	c       *Conn
	pending map[uint64]chan roundTripResult
	err     error // sticky while dead
	dead    bool
}

type roundTripResult struct {
	frame Frame
	err   error
}

// DialSession connects a multiplexed session to addr, announcing the
// given role ("cache" or "client"). Every pooled connection completes
// the handshake (DialConn) before the session is usable.
func DialSession(addr, role string, cfg SessionConfig) (*Session, error) {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 1
	}
	s := &Session{addr: addr, role: role, cfg: cfg}
	for i := 0; i < cfg.PoolSize; i++ {
		c, err := DialConn(addr, Hello{Role: role}, cfg)
		if err != nil {
			s.Close()
			return nil, err
		}
		sc := &sessionConn{c: c, pending: make(map[uint64]chan roundTripResult)}
		s.conns = append(s.conns, sc)
		go sc.readLoop(c)
	}
	return s, nil
}

// Redial replaces every pooled connection whose reader has failed with
// a fresh one: one dial each, no retry. A session never redials on its
// own; a caller that knows its peer is back (an invalidation stream
// that resumed) calls this.
func (s *Session) Redial() error {
	cfg := s.cfg
	cfg.DialRetry = 0
	var errs []error
	for _, sc := range s.conns {
		sc.mu.Lock()
		alive := sc.c != nil
		sc.mu.Unlock()
		if alive || s.closed.Load() {
			continue
		}
		c, err := DialConn(s.addr, Hello{Role: s.role}, cfg)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		sc.mu.Lock()
		if s.closed.Load() || sc.c != nil {
			sc.mu.Unlock()
			c.Close()
			continue
		}
		sc.c, sc.dead, sc.err = c, false, nil
		sc.mu.Unlock()
		go sc.readLoop(c)
	}
	return errors.Join(errs...)
}

// dialRetry dials addr, retrying connection-refused failures with
// capped exponential backoff plus jitter for up to cfg.DialRetry of
// elapsed time. The jitter desynchronizes a fleet of dialers all
// racing the same server's startup.
func dialRetry(addr string, cfg SessionConfig) (net.Conn, error) {
	deadline := time.Now().Add(cfg.DialRetry)
	var b Backoff
	for {
		nc, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
		if err == nil || cfg.DialRetry <= 0 ||
			!errors.Is(err, syscall.ECONNREFUSED) || !time.Now().Before(deadline) {
			return nc, err
		}
		time.Sleep(min(b.Next(), time.Until(deadline)))
	}
}

// Backoff paces a retry loop: capped exponential backoff with full
// jitter, so retries spread instead of thundering onto a server the
// instant it binds. The zero value is ready.
type Backoff struct{ ceil time.Duration }

// Next returns the wait before the next attempt: uniform over (0, ceil],
// where ceil starts at 10 ms and doubles up to 500 ms.
func (b *Backoff) Next() time.Duration {
	b.ceil = min(max(2*b.ceil, 10*time.Millisecond), 500*time.Millisecond)
	return time.Duration(rand.Int64N(int64(b.ceil))) + 1
}

// DialConn dials addr (honoring cfg.DialTimeout and cfg.DialRetry) and
// completes the dial half of the handshake every role shares: send
// hello at ProtoV3, then wait up to DialTimeout for the HelloAck.
// A node acks only once it is ready to serve the role — the repository
// acks an "invalidations" Hello after registering the subscriber — so
// when DialConn returns, the connection is live on the far side. A
// MsgError reply (the peer refused the role or the version) comes back
// as a *RemoteError.
func DialConn(addr string, hello Hello, cfg SessionConfig) (*Conn, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	nc, err := dialRetry(addr, cfg)
	if err != nil {
		return nil, fmt.Errorf("netproto: dial %s: %w", addr, err)
	}
	c := NewConn(nc)
	if err := handshake(nc, c, hello, cfg.DialTimeout); err != nil {
		nc.Close()
		return nil, fmt.Errorf("netproto: handshake with %s: %w", addr, err)
	}
	return c, nil
}

func handshake(nc net.Conn, c *Conn, hello Hello, timeout time.Duration) error {
	hello.Version = ProtoV3
	if err := c.Send(Frame{Type: MsgHello, Body: hello}); err != nil {
		return err
	}
	if err := nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	reply, err := c.Recv()
	if err != nil {
		return err
	}
	if reply, err = checkError(reply); err != nil {
		return err
	}
	ack, ok := reply.Body.(HelloAck)
	if !ok {
		return fmt.Errorf("expected hello-ack, got %s", reply.Type)
	}
	if ack.Version != ProtoV3 {
		return fmt.Errorf("peer acknowledged protocol v%d, need v%d", ack.Version, ProtoV3)
	}
	return nc.SetReadDeadline(time.Time{})
}

// readLoop demultiplexes replies by RequestID. Replies with no waiter
// (a cancelled RoundTrip) are dropped.
func (sc *sessionConn) readLoop(c *Conn) {
	for {
		f, err := c.Recv()
		if err != nil {
			sc.fail(err)
			c.Close()
			return
		}
		sc.mu.Lock()
		ch, ok := sc.pending[f.RequestID]
		delete(sc.pending, f.RequestID)
		sc.mu.Unlock()
		if ok {
			ch <- roundTripResult{frame: f} // buffered; never blocks
		}
	}
}

// fail marks the connection dead and unblocks every waiter.
func (sc *sessionConn) fail(err error) {
	sc.mu.Lock()
	sc.c, sc.dead, sc.err = nil, true, err
	pending := sc.pending
	sc.pending = make(map[uint64]chan roundTripResult)
	sc.mu.Unlock()
	for _, ch := range pending {
		ch <- roundTripResult{err: err}
	}
}

// waiters recycles reply channels (capacity 1: the one delivery never
// blocks readLoop or fail). A channel returns to the pool only from the
// round trip that received its reply, or that never registered it: once
// a round trip gives up while registered, readLoop or fail may already
// hold the channel and deliver into it later.
var waiters = sync.Pool{New: func() any { return make(chan roundTripResult, 1) }}

// timers recycles the timers behind round-trip timeouts. go.mod's go
// line is past 1.23, so a stopped timer's channel holds no stale tick.
var timers sync.Pool

// RoundTrip sends one request and waits for its correlated reply,
// honoring ctx for cancellation. An ErrorMsg reply is converted to a
// *RemoteError. Safe for concurrent use.
func (s *Session) RoundTrip(ctx context.Context, f Frame) (Frame, error) {
	return s.RoundTripTimeout(ctx, f, 0)
}

// RoundTripTimeout is RoundTrip bounded by timeout as well as by ctx; a
// round trip that outlasts it fails with context.DeadlineExceeded while
// ctx stays alive, so the caller can tell its own deadline from this
// hop's. timeout <= 0 means no bound beyond ctx.
func (s *Session) RoundTripTimeout(ctx context.Context, f Frame, timeout time.Duration) (Frame, error) {
	if s.closed.Load() {
		return Frame{}, net.ErrClosed
	}
	sc := s.pick()
	if sc == nil {
		return Frame{}, fmt.Errorf("netproto: session has no live connections")
	}
	id := s.reqID.Add(1)
	f.RequestID = id
	ch := waiters.Get().(chan roundTripResult)
	sc.mu.Lock()
	if sc.dead {
		err := sc.err
		sc.mu.Unlock()
		waiters.Put(ch)
		return Frame{}, err
	}
	sc.pending[id] = ch
	c := sc.c
	sc.mu.Unlock()
	if err := c.Send(f); err != nil {
		// A send failure means the frame cannot be encoded or the
		// write side is broken; stop routing new requests here. The
		// read side keeps draining replies for requests already in
		// flight until it fails on its own.
		sc.mu.Lock()
		delete(sc.pending, id)
		sc.dead = true
		if sc.err == nil {
			sc.err = err
		}
		sc.mu.Unlock()
		return Frame{}, err
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t, _ := timers.Get().(*time.Timer)
		if t == nil {
			t = time.NewTimer(timeout)
		} else {
			t.Reset(timeout)
		}
		defer func() {
			t.Stop()
			timers.Put(t)
		}()
		expired = t.C
	}
	err := context.DeadlineExceeded
	select {
	case res := <-ch:
		waiters.Put(ch)
		if res.err != nil {
			return Frame{}, res.err
		}
		return checkError(res.frame)
	case <-ctx.Done():
		err = ctx.Err()
	case <-expired:
	}
	sc.mu.Lock()
	delete(sc.pending, id)
	sc.mu.Unlock()
	return Frame{}, err
}

func checkError(f Frame) (Frame, error) {
	if e, ok := f.Body.(ErrorMsg); ok {
		return Frame{}, &RemoteError{Message: e.Message}
	}
	return f, nil
}

// pick returns a live connection, preferring round-robin order. The
// counter stays uint64 throughout: an int conversion would go
// negative on 32-bit platforms once it wraps, and a negative modulo
// would panic the indexing.
func (s *Session) pick() *sessionConn {
	n := uint64(len(s.conns))
	start := s.next.Add(1)
	for i := uint64(0); i < n; i++ {
		sc := s.conns[(start+i)%n]
		sc.mu.Lock()
		dead := sc.dead
		sc.mu.Unlock()
		if !dead {
			return sc
		}
	}
	return nil
}

// Close tears the session down; in-flight round trips fail.
func (s *Session) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		for _, sc := range s.conns {
			sc.mu.Lock()
			c := sc.c
			sc.mu.Unlock()
			if c == nil {
				continue
			}
			if e := c.Close(); e != nil && err == nil {
				err = e
			}
		}
	})
	return err
}
