package netproto

import "sync"

// DefaultMuxWorkers bounds per-connection request concurrency so one
// misbehaving peer cannot spawn unbounded goroutines.
const DefaultMuxWorkers = 64

// ServeMux is the server half of a request connection: it reads
// request frames until the stream closes, dispatches each to handle on
// a bounded worker pool, and sends the reply stamped with the request's
// correlation ID (Conn.Send serializes concurrent replies onto the
// socket). It returns nil on orderly shutdown. workers <= 0 means
// DefaultMuxWorkers; logf may be nil.
func ServeMux(c *Conn, workers int, handle func(Frame) Frame, logf func(format string, args ...any)) error {
	if workers <= 0 {
		workers = DefaultMuxWorkers
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	sem := make(chan struct{}, workers)
	for {
		f, err := c.Recv()
		if err != nil {
			if IsClosed(err) {
				return nil
			}
			return err
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(f Frame) {
			defer wg.Done()
			defer func() { <-sem }()
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
		}(f)
	}
}
