package client

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

func TestDialFailure(t *testing.T) {
	// Only a refused dial is retried: an address with no port fails at
	// once.
	start := time.Now()
	if _, err := Dial("127.0.0.1"); err == nil {
		t.Error("dialing an address with no port should fail")
	}
	if waited := time.Since(start); waited >= time.Second {
		t.Errorf("a dial that was not refused took %v; it was retried", waited)
	}
}

// TestDialRetriesRefusedConnection starts the cache endpoint after the
// client begins dialing: the default backoff-with-jitter retry must
// ride out the startup race (the failure mode of a router spawned
// alongside its shards).
func TestDialRetriesRefusedConnection(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	go func() {
		time.Sleep(250 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c := netproto.NewConn(conn)
		if _, err := c.Recv(); err != nil {
			return
		}
		_ = c.Send(netproto.Frame{Type: netproto.MsgHelloAck, Body: netproto.HelloAck{Version: netproto.ProtoV3}})
	}()
	cl, err := Dial(addr) // default retry window covers the 250ms gap
	if err != nil {
		t.Fatalf("dial with default retry failed: %v", err)
	}
	cl.Close()
}

// fakeCache runs a minimal cache endpoint: the accept half of the
// handshake every node performs, then each request answered via handle
// (concurrently, echoing RequestIDs) until the connection closes.
func fakeCache(t *testing.T, handle func(f netproto.Frame) netproto.Frame) string {
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
				c := netproto.NewConn(conn)
				hello, err := netproto.ReadHello(c)
				if err != nil {
					return
				}
				if _, err := netproto.ServeHandshake(c, hello, 0); err != nil {
					return
				}
				_ = netproto.ServeMux(c, 0, handle, nil)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestQueryAgainstFakeCache exercises the client against a minimal
// hand-rolled cache endpoint (the full path is covered by the
// internal/cache integration tests).
func TestQueryAgainstFakeCache(t *testing.T) {
	addr := fakeCache(t, func(f netproto.Frame) netproto.Frame {
		q := f.Body.(netproto.QueryMsg).Query
		if q.Cost == 1 {
			return netproto.Frame{Type: netproto.MsgError, Body: netproto.ErrorMsg{Message: "boom"}}
		}
		return netproto.Frame{Type: netproto.MsgQueryResult, Body: netproto.QueryResultMsg{
			QueryID: q.ID,
			Logical: q.Cost,
			Source:  "cache",
		}}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	res, err := cl.Query(ctx, model.Query{Objects: []model.ObjectID{1}, Cost: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "cache" || res.Logical != 42 {
		t.Errorf("result = %+v", res)
	}

	if _, err := cl.Query(ctx, model.Query{Objects: []model.ObjectID{1}, Cost: 1}); err == nil {
		t.Error("error frame should surface as an error")
	}
}

// TestQueryAssignsIDs verifies the client fills in missing query IDs.
func TestQueryAssignsIDs(t *testing.T) {
	ids := make(chan model.QueryID, 2)
	addr := fakeCache(t, func(f netproto.Frame) netproto.Frame {
		q := f.Body.(netproto.QueryMsg).Query
		ids <- q.ID
		return netproto.Frame{Type: netproto.MsgQueryResult, Body: netproto.QueryResultMsg{
			QueryID: q.ID, Source: "cache",
		}}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := cl.Query(ctx, model.Query{Objects: []model.ObjectID{1}, Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := <-ids, <-ids
	if a == 0 || b == 0 || a == b {
		t.Errorf("auto-assigned IDs wrong: %d, %d", a, b)
	}
}

// TestQueryBatchAndAsync runs a batch of queries concurrently through
// one client, one goroutine each, and checks every answer reaches the
// call that asked for it.
func TestQueryBatchAndAsync(t *testing.T) {
	addr := fakeCache(t, func(f netproto.Frame) netproto.Frame {
		q := f.Body.(netproto.QueryMsg).Query
		return netproto.Frame{Type: netproto.MsgQueryResult, Body: netproto.QueryResultMsg{
			QueryID: q.ID, Logical: q.Cost, Source: "cache",
		}}
	})
	cl, err := Dial(addr, WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	results := make([]*Result, 16)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = cl.Query(ctx, model.Query{Objects: []model.ObjectID{1}, Cost: cost.Bytes(100 + i)})
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil || res.Logical != 100+int64(i) {
			t.Fatalf("query %d = %+v, %v", i, res, errs[i])
		}
	}
}

// TestQueryContextCancel verifies an abandoned request unblocks when
// its context is cancelled even though the server never replies.
func TestQueryContextCancel(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	addr := fakeCache(t, func(f netproto.Frame) netproto.Frame {
		<-block // never answer while the test runs
		return netproto.Frame{Type: netproto.MsgError, Body: netproto.ErrorMsg{Message: "late"}}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cl.Query(ctx, model.Query{Objects: []model.ObjectID{1}, Cost: 2}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
}
