package netproto

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/model"
)

// muxPair connects a loopback TCP pair and serves its accept side with
// ServeMux. It returns the dial side, the channel ServeMux's result
// arrives on, and the goroutine count from before ServeMux started.
func muxPair(t testing.TB, workers int, handle func(Frame) Frame) (peer *Conn, served <-chan error, baseline int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		dialed.Close()
		accepted.Close()
	})
	baseline = runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- ServeMux(NewConn(accepted), workers, handle, t.Logf) }()
	return NewConn(dialed), done, baseline
}

func muxRequest(id int) Frame {
	return Frame{Type: MsgQuery, RequestID: uint64(id), Body: QueryMsg{Query: model.Query{ID: model.QueryID(id)}}}
}

// muxEcho answers a muxRequest with its own query ID.
func muxEcho(f Frame) Frame {
	return Frame{Type: MsgQueryResult, Body: QueryResultMsg{QueryID: f.Body.(QueryMsg).Query.ID}}
}

// recvEcho reads one reply and checks that its payload belongs to its
// correlation ID.
func recvEcho(t testing.TB, c *Conn) uint64 {
	t.Helper()
	f, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Body.(QueryResultMsg).QueryID; uint64(got) != f.RequestID {
		t.Fatalf("reply %d carries the answer to request %d", f.RequestID, got)
	}
	return f.RequestID
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// waitServed waits for ServeMux to return nil and for every goroutine it
// started to be gone.
func waitServed(t *testing.T, served <-chan error, baseline int) {
	t.Helper()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ServeMux = %v, want nil on an orderly close", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeMux did not return after the connection closed")
	}
	waitFor(t, "the goroutine count is back to its baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}

// With every worker of a connection blocked in its handler, the next
// request is not started until one returns — and the connection costs
// the reader plus at most `workers` goroutines.
func TestServeMuxBoundsWorkers(t *testing.T) {
	const workers = DefaultMuxWorkers
	var started atomic.Int64
	release := make(chan struct{})
	peer, served, baseline := muxPair(t, 0, func(f Frame) Frame {
		started.Add(1)
		<-release
		return muxEcho(f)
	})
	for id := 1; id <= workers+1; id++ {
		if err := peer.Send(muxRequest(id)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every worker is in its handler", func() bool { return started.Load() == workers })
	time.Sleep(50 * time.Millisecond) // time for a mux without a bound to start the extra request
	if got := started.Load(); got != workers {
		t.Errorf("%d handlers running on one connection, want the bound %d", got, workers)
	}
	if grew := runtime.NumGoroutine() - baseline; grew > workers+1 {
		t.Errorf("goroutines grew by %d, want <= %d (reader + workers)", grew, workers+1)
	}
	release <- struct{}{}
	waitFor(t, "the waiting request starts on the freed worker", func() bool { return started.Load() == workers+1 })
	close(release)
	seen := make(map[uint64]bool)
	for range workers + 1 {
		seen[recvEcho(t, peer)] = true
	}
	if len(seen) != workers+1 {
		t.Errorf("%d distinct replies, want %d", len(seen), workers+1)
	}
	peer.Close()
	waitServed(t, served, baseline)
}

// Sequential requests reuse a parked worker instead of spawning one
// each. A few extra workers are allowed for: now and then the reader
// sees the next request before the worker that just replied has parked
// (about once in these 10,000 round trips on two cores).
func TestServeMuxReusesWorkers(t *testing.T) {
	peer, served, baseline := muxPair(t, 0, muxEcho)
	for id := 1; id <= 10_000; id++ {
		if err := peer.Send(muxRequest(id)); err != nil {
			t.Fatal(err)
		}
		recvEcho(t, peer)
	}
	if grew := runtime.NumGoroutine() - baseline; grew > 1+8 {
		t.Errorf("10,000 sequential requests grew the goroutine count by %d, want <= 9 (reader + 8 workers)", grew)
	}
	peer.Close()
	waitServed(t, served, baseline)
}

// Replies leave in completion order: a handler that blocks does not
// hold up a later request on the same connection.
func TestServeMuxFastReplyPassesSlow(t *testing.T) {
	release := make(chan struct{})
	peer, served, baseline := muxPair(t, 0, func(f Frame) Frame {
		if f.RequestID == 1 {
			<-release
		}
		return muxEcho(f)
	})
	for id := 1; id <= 2; id++ {
		if err := peer.Send(muxRequest(id)); err != nil {
			t.Fatal(err)
		}
	}
	if got := recvEcho(t, peer); got != 2 {
		t.Fatalf("first reply is to request %d, want the fast request 2", got)
	}
	close(release)
	if got := recvEcho(t, peer); got != 1 {
		t.Fatalf("second reply is to request %d, want the slow request 1", got)
	}
	peer.Close()
	waitServed(t, served, baseline)
}

// A connection closed with handlers in flight: ServeMux waits for them,
// then returns with nothing left behind.
func TestServeMuxCloseMidFlight(t *testing.T) {
	var started atomic.Int64
	release := make(chan struct{})
	peer, served, baseline := muxPair(t, 0, func(f Frame) Frame {
		started.Add(1)
		<-release
		return muxEcho(f)
	})
	for id := 1; id <= 3; id++ {
		if err := peer.Send(muxRequest(id)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the handlers are running", func() bool { return started.Load() == 3 })
	peer.Close()
	select {
	case err := <-served:
		t.Fatalf("ServeMux returned %v with handlers still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	waitServed(t, served, baseline)
}

// echoSession dials a session to a loopback node that serves every
// connection with ServeMux(handle).
func echoSession(t testing.TB, handle func(Frame) Frame) *Session {
	t.Helper()
	addr := listen(t, func(c *Conn) {
		if accept(c) {
			_ = ServeMux(c, 0, handle, nil)
		}
	})
	s, err := DialSession(addr, "client", SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// A round trip that gave up — cancelled or timed out — just as its
// reply landed must not hand that reply to a later round trip through
// a recycled waiter: every answer carries the payload of its request.
func TestSessionLateReplyNeverSurfaces(t *testing.T) {
	s := echoSession(t, muxEcho)
	gaveUp := 0
	for id := 1; id <= 10_000; id++ {
		ctx, cancel, timeout := context.Background(), context.CancelFunc(func() {}), time.Duration(0)
		// Give up about when the reply is due: a loopback round trip
		// takes tens of microseconds.
		switch patience := time.Duration(id%64) * time.Microsecond; id % 3 {
		case 1:
			timeout = patience + 1
		case 2:
			ctx, cancel = context.WithTimeout(ctx, patience)
		}
		reply, err := s.RoundTripTimeout(ctx, muxRequest(id), timeout)
		cancel()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			gaveUp++
		case err != nil:
			t.Fatalf("round trip %d: %v", id, err)
		case reply.Body.(QueryResultMsg).QueryID != model.QueryID(id):
			t.Fatalf("round trip %d was handed the reply to request %d", id, reply.Body.(QueryResultMsg).QueryID)
		}
	}
	if gaveUp == 0 || gaveUp > 6_000 {
		t.Errorf("%d of 10,000 round trips gave up; the test wants some to, and the patient third never", gaveUp)
	}
}

// The allocation budget of one Session ↔ ServeMux round trip on
// loopback, both ends counted (AllocsPerRun counts the whole process):
// 14 when every request spawned a goroutine and every hop made a
// context, a timer and a reply channel; 5 now, 7 under -race, where
// sync.Pool drops a share of what is put back.
func TestRoundTripAllocationBudget(t *testing.T) {
	s := echoSession(t, muxEcho)
	req := muxRequest(1)
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := s.RoundTripTimeout(context.Background(), req, time.Minute); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per round trip: %.0f", allocs)
	if allocs > 8 {
		t.Errorf("%.0f allocations per round trip, budget 8", allocs)
	}
}

var stackSink byte

// BenchmarkServeMuxRoundTrip times one echo round trip on loopback
// through Session and ServeMux, with a handler that touches 8 KB of
// stack the way a node's handler grows a fresh goroutine's.
func BenchmarkServeMuxRoundTrip(b *testing.B) {
	for _, callers := range []int{1, 8} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			s := echoSession(b, func(f Frame) Frame {
				var pad [8 << 10]byte
				pad[int(f.RequestID)%len(pad)] = 1
				stackSink = pad[len(pad)/2]
				return muxEcho(f)
			})
			req := muxRequest(1)
			var (
				wg   sync.WaitGroup
				next atomic.Int64
			)
			b.ReportAllocs()
			b.ResetTimer()
			for range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := s.RoundTripTimeout(context.Background(), req, time.Minute); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
