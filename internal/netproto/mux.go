package netproto

import "sync"

// DefaultMuxWorkers bounds per-connection request concurrency so one
// misbehaving peer cannot spawn unbounded goroutines.
const DefaultMuxWorkers = 64

// ServeMux is the server half of a request connection: it reads
// request frames until the stream closes, hands each to a worker that
// runs handle and sends the reply stamped with the request's
// correlation ID (Conn.Send serializes concurrent replies onto the
// socket, so replies leave in completion order). Workers are
// persistent and bounded: a frame goes to a parked worker if there is
// one, else to a new worker if fewer than workers exist, else the
// reader waits — and the peer's next request stays unread in the
// socket — until one parks. A worker lives until the connection ends,
// so it keeps the stack its handler grew instead of regrowing a fresh
// one per request. ServeMux returns, nil on orderly shutdown, only
// after every worker has exited. workers <= 0 means DefaultMuxWorkers;
// logf may be nil.
func ServeMux(c *Conn, workers int, handle func(Frame) Frame, logf func(format string, args ...any)) error {
	if workers <= 0 {
		workers = DefaultMuxWorkers
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	serve := func(f Frame) {
		reply := handle(f)
		reply.RequestID = f.RequestID
		if err := c.Send(reply); err != nil && !IsClosed(err) {
			// The reply could not be sent (unencodable or I/O
			// failure): close the stream so the Recv loop exits
			// instead of leaving a zombie connection that reads
			// requests it can never answer.
			logf("netproto: reply %d: %v (closing connection)", f.RequestID, err)
			c.Close()
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	// Unbuffered: a send completes only into a worker parked on it.
	jobs := make(chan Frame)
	defer close(jobs)
	spawned := 0
	for {
		f, err := c.Recv()
		if err != nil {
			if IsClosed(err) {
				return nil
			}
			return err
		}
		select {
		case jobs <- f:
			continue
		default:
		}
		if spawned == workers {
			jobs <- f // all busy: wait for the first to park
			continue
		}
		spawned++
		wg.Add(1)
		go func(f Frame) {
			defer wg.Done()
			for ok := true; ok; f, ok = <-jobs {
				serve(f)
			}
		}(f)
	}
}
