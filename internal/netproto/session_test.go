package netproto

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// startServer runs a minimal request server: it answers each QueryMsg
// via reply (possibly out of order), echoing RequestIDs.
func startServer(t *testing.T, reply func(f Frame, c *Conn)) string {
	t.Helper()
	return listen(t, func(c *Conn) {
		if !accept(c) {
			return
		}
		for {
			f, err := c.Recv()
			if err != nil {
				return
			}
			reply(f, c)
		}
	})
}

// accept completes the accept half of the handshake the way every node
// does, reporting whether the connection is now open for requests.
func accept(c *Conn) bool {
	hello, err := ReadHello(c)
	if err != nil {
		return false
	}
	_, err = ServeHandshake(c, hello, 0)
	return err == nil
}

// listen accepts connections on a loopback port until the test ends,
// running serve on each and closing it when serve returns.
func listen(t testing.TB, serve func(c *Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(NewConn(conn))
			}()
		}
	}()
	return ln.Addr().String()
}

func echoQuery(f Frame, c *Conn) {
	q := f.Body.(QueryMsg).Query
	_ = c.Send(Frame{
		Type:      MsgQueryResult,
		RequestID: f.RequestID,
		Body:      QueryResultMsg{QueryID: q.ID, Logical: q.Cost, Source: "test"},
	})
}

func TestSessionRoundTrip(t *testing.T) {
	addr := startServer(t, echoQuery)
	s, err := DialSession(addr, "client", SessionConfig{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := int64(1); i <= 4; i++ {
		reply, err := s.RoundTrip(context.Background(), Frame{Type: MsgQuery, Body: QueryMsg{
			Query: model.Query{ID: model.QueryID(i), Objects: []model.ObjectID{1}, Cost: cost.Bytes(i)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		res := reply.Body.(QueryResultMsg)
		if res.QueryID != model.QueryID(i) || res.Logical != cost.Bytes(i) {
			t.Fatalf("reply %d = %+v", i, res)
		}
	}
}

// TestSessionDemuxOutOfOrder holds the first request's reply back until
// a later request has been answered: the demultiplexer must route each
// reply to its own waiter by RequestID.
func TestSessionDemuxOutOfOrder(t *testing.T) {
	var (
		mu       sync.Mutex
		deferred []Frame
	)
	addr := startServer(t, func(f Frame, c *Conn) {
		q := f.Body.(QueryMsg).Query
		out := Frame{
			Type:      MsgQueryResult,
			RequestID: f.RequestID,
			Body:      QueryResultMsg{QueryID: q.ID, Logical: q.Cost, Source: "test"},
		}
		mu.Lock()
		defer mu.Unlock()
		if q.ID == 1 { // park the first query's reply
			deferred = append(deferred, out)
			return
		}
		_ = c.Send(out)
		for _, d := range deferred { // flush parked replies afterwards
			_ = c.Send(d)
		}
		deferred = nil
	})

	s, err := DialSession(addr, "client", SessionConfig{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	first := make(chan error, 1)
	go func() {
		reply, err := s.RoundTrip(ctx, Frame{Type: MsgQuery, Body: QueryMsg{
			Query: model.Query{ID: 1, Objects: []model.ObjectID{1}, Cost: 11},
		}})
		if err == nil && reply.Body.(QueryResultMsg).QueryID != 1 {
			err = errors.New("first waiter got someone else's reply")
		}
		first <- err
	}()
	// Give the first request time to reach the server and be parked.
	time.Sleep(50 * time.Millisecond)
	reply, err := s.RoundTrip(ctx, Frame{Type: MsgQuery, Body: QueryMsg{
		Query: model.Query{ID: 2, Objects: []model.ObjectID{1}, Cost: 22},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res := reply.Body.(QueryResultMsg); res.QueryID != 2 || res.Logical != 22 {
		t.Fatalf("second reply = %+v (demux crossed wires)", res)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

// TestDialConnHandshake pins the dial half of the handshake against
// every answer a peer can give to the Hello: only HelloAck{ProtoV3}
// yields a connection; any other version, a refusal, a frame of the
// wrong type, an early close and plain silence all fail the dial
// within DialTimeout — never a hang, never a
// connection the caller would go on to use.
func TestDialConnHandshake(t *testing.T) {
	answer := func(frames ...Frame) func(c *Conn) {
		return func(c *Conn) {
			hello, err := ReadHello(c)
			if err != nil || hello.Version != ProtoV3 {
				return
			}
			for _, f := range frames {
				_ = c.Send(f)
			}
			_, _ = c.Recv() // hold the connection until the dialer lets go
		}
	}
	cases := []struct {
		name  string
		serve func(c *Conn)
		ok    bool
	}{
		{"ack-v3", answer(Frame{Type: MsgHelloAck, Body: HelloAck{Version: ProtoV3}}), true},
		{"ack-v2", answer(Frame{Type: MsgHelloAck, Body: HelloAck{Version: 2}}), false},
		{"ack-v4", answer(Frame{Type: MsgHelloAck, Body: HelloAck{Version: 4}}), false},
		{"ack-v0", answer(Frame{Type: MsgHelloAck, Body: HelloAck{}}), false},
		{"refused", answer(ErrorFrame("go away")), false},
		{"wrong-frame", answer(Frame{Type: MsgStats, Body: StatsMsg{}}), false},
		{"closed", func(c *Conn) { _, _ = ReadHello(c) }, false},
		{"silent", func(c *Conn) { _, _ = c.Recv(); _, _ = c.Recv() }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := listen(t, tc.serve)
			start := time.Now()
			c, err := DialConn(addr, Hello{Role: "invalidations"}, SessionConfig{DialTimeout: 200 * time.Millisecond})
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("dial took %v, want it bounded by DialTimeout", elapsed)
			}
			if tc.ok {
				if err != nil {
					t.Fatal(err)
				}
				c.Close()
				return
			}
			if err == nil {
				c.Close()
				t.Fatal("dial succeeded")
			}
			var remote *RemoteError
			if tc.name == "refused" && !errors.As(err, &remote) {
				t.Errorf("refusal surfaced as %v, want a *RemoteError", err)
			}
		})
	}
}

// TestSessionConcurrentRoundTrips hammers one session from many
// goroutines; every reply must match its request.
func TestSessionConcurrentRoundTrips(t *testing.T) {
	addr := startServer(t, echoQuery)
	s, err := DialSession(addr, "client", SessionConfig{PoolSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const goroutines = 16
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := model.QueryID(g*1000 + i + 1)
				reply, err := s.RoundTrip(context.Background(), Frame{Type: MsgQuery, Body: QueryMsg{
					Query: model.Query{ID: id, Objects: []model.ObjectID{1}, Cost: cost.Bytes(id)},
				}})
				if err != nil {
					errs <- err
					return
				}
				if res := reply.Body.(QueryResultMsg); res.QueryID != id {
					errs <- errors.New("reply routed to wrong waiter")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSessionFailsPendingOnDisconnect(t *testing.T) {
	addr := listen(t, func(c *Conn) {
		if !accept(c) {
			return
		}
		_, _ = c.Recv() // take the request, then die with it in flight
	})
	s, err := DialSession(addr, "client", SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan error, 1)
	go func() {
		_, err := s.RoundTrip(context.Background(), Frame{Type: MsgQuery, Body: QueryMsg{
			Query: model.Query{ID: 1, Objects: []model.ObjectID{1}, Cost: 1},
		}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("round trip survived a dead connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round trip hung after disconnect")
	}
}

// TestSessionPoolExhaustedUnderCancellation drives a pooled session
// against a server that accepts requests but never answers them:
// cancelled round trips must return promptly and deregister their
// waiters (no pending-map leak), and once every pooled connection is
// dead the session must fail new requests immediately instead of
// hanging.
func TestSessionPoolExhaustedUnderCancellation(t *testing.T) {
	var (
		acceptedMu sync.Mutex
		accepted   []*Conn
	)
	addr := listen(t, func(c *Conn) {
		if !accept(c) {
			return
		}
		acceptedMu.Lock()
		accepted = append(accepted, c)
		acceptedMu.Unlock()
		for { // swallow requests, never reply
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	})

	s, err := DialSession(addr, "client", SessionConfig{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Saturate the pool with requests that get cancelled.
	const inFlight = 8
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			_, err := s.RoundTrip(ctx, Frame{Type: MsgQuery, Body: QueryMsg{
				Query: model.Query{ID: model.QueryID(i + 1), Objects: []model.ObjectID{1}, Cost: 1},
			}})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("request %d: err = %v, want deadline exceeded", i, err)
			}
		}(i)
	}
	wg.Wait()
	// Every abandoned waiter must have been deregistered.
	for i, sc := range s.conns {
		sc.mu.Lock()
		n := len(sc.pending)
		sc.mu.Unlock()
		if n != 0 {
			t.Errorf("conn %d leaks %d pending waiters after cancellation", i, n)
		}
	}

	// An already-cancelled context must not consume a connection slot.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RoundTrip(cancelled, Frame{Type: MsgQuery, Body: QueryMsg{
		Query: model.Query{ID: 99, Objects: []model.ObjectID{1}, Cost: 1},
	}}); err == nil {
		t.Error("round trip with pre-cancelled context succeeded")
	}

	// Kill every pooled connection: the session is exhausted and must
	// fail fast, not hang waiting for a reply that cannot come.
	acceptedMu.Lock()
	for _, c := range accepted {
		c.Close()
	}
	acceptedMu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := make(chan error, 1)
		go func() {
			_, err := s.RoundTrip(context.Background(), Frame{Type: MsgQuery, Body: QueryMsg{
				Query: model.Query{ID: 100, Objects: []model.ObjectID{1}, Cost: 1},
			}})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("round trip on an exhausted pool succeeded")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("round trip on an exhausted pool hung")
		}
		if !live(s) {
			break // both readers noticed; the pool and RoundTrip agree
		}
		if time.Now().After(deadline) {
			t.Fatal("session never noticed both connections died")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionRedialRevivesDeadConnections: a session whose connections
// all died stays dead on its own, and Redial brings back exactly the dead
// ones, after which round trips succeed again.
func TestSessionRedialRevivesDeadConnections(t *testing.T) {
	conns := make(chan *Conn, 4) // the pool of 2, then its 2 redials
	addr := listen(t, func(c *Conn) {
		if !accept(c) {
			return
		}
		conns <- c
		for {
			f, err := c.Recv()
			if err != nil {
				return
			}
			echoQuery(f, c)
		}
	})
	s, err := DialSession(addr, "client", SessionConfig{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	query := func() error {
		_, err := s.RoundTrip(context.Background(), Frame{Type: MsgQuery, Body: QueryMsg{
			Query: model.Query{ID: 1, Objects: []model.ObjectID{1}, Cost: 1},
		}})
		return err
	}
	for range 2 {
		(<-conns).Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for live(s) {
		if time.Now().After(deadline) {
			t.Fatal("session never noticed its connections died")
		}
		time.Sleep(time.Millisecond)
	}
	if err := query(); err == nil {
		t.Fatal("a dead session answered before Redial")
	}
	if err := s.Redial(); err != nil {
		t.Fatal(err)
	}
	if err := s.Redial(); err != nil { // nothing is dead: dials nothing
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := query(); err != nil {
			t.Fatalf("round trip %d after Redial: %v", i, err)
		}
	}
	if len(conns) != 2 {
		t.Errorf("%d connections redialed, want the 2 dead ones", len(conns))
	}
}

// TestDialRetryRidesOutStartupRace reserves an address, starts the
// server only after a delay, and dials with DialRetry: the dial must
// ride out the refused attempts and succeed once the listener binds.
func TestDialRetryRidesOutStartupRace(t *testing.T) {
	// Reserve a port, then free it for the late-starting server.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	// Without retry, the dial must fail immediately.
	start := time.Now()
	if _, err := DialSession(addr, "client", SessionConfig{}); err == nil {
		t.Fatal("dial of an unbound port succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("retry-less dial took %v; refused should fail fast", elapsed)
	}

	go func() {
		time.Sleep(250 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return // port got reused; the dial will fail the test below
		}
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c := NewConn(conn)
		if _, err := c.Recv(); err != nil {
			return
		}
		_ = c.Send(Frame{Type: MsgHelloAck, Body: HelloAck{Version: ProtoV3}})
	}()
	s, err := DialSession(addr, "client", SessionConfig{DialRetry: 5 * time.Second})
	if err != nil {
		t.Fatalf("dial with retry failed: %v", err)
	}
	s.Close()
}

func TestIsClosed(t *testing.T) {
	if IsClosed(nil) {
		t.Error("nil is not closed")
	}
	for _, err := range []error{io.EOF, io.ErrUnexpectedEOF, net.ErrClosed} {
		if !IsClosed(err) {
			t.Errorf("IsClosed(%v) = false", err)
		}
		if !IsClosed(wrap(err)) {
			t.Errorf("IsClosed(wrapped %v) = false", err)
		}
	}
	if IsClosed(errors.New("EOF")) {
		t.Error("a stringly EOF must not count — that fragility is what IsClosed replaces")
	}
}

func wrap(err error) error { return &wrapped{err} }

type wrapped struct{ err error }

func (w *wrapped) Error() string { return "wrapped: " + w.err.Error() }
func (w *wrapped) Unwrap() error { return w.err }

// live reports whether any of s's pooled connections is usable.
func live(s *Session) bool {
	for _, sc := range s.conns {
		sc.mu.Lock()
		dead := sc.dead
		sc.mu.Unlock()
		if !dead {
			return true
		}
	}
	return false
}
