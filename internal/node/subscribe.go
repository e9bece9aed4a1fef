package node

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/obs"
)

// StreamHandler is what a consumer does with its invalidation stream.
// Frame and Gap run on the subscription's one receive goroutine.
type StreamHandler struct {
	// Frame receives every frame of the stream but the echoes of the
	// consumer's own frames, in stream order.
	Frame func(netproto.Frame)
	// Gap runs when the stream is lost while the node is not closing.
	// Nothing is delivered until Resume, and the repository keeps
	// nothing for a subscriber that is away: whatever the consumer
	// answers from must fail closed here.
	Gap func()
	// Resume runs on each fresh connection after a gap, before any of
	// its frames is delivered, with s locked and the new connection
	// current: s.Send puts frames on it.
	Resume func(s *Subscription)
}

// Subscription is a consumer's end of the repository's invalidation
// stream, written once for every role that consumes one. It dials and
// handshakes, delivers frames to its handler, and when the stream is
// lost while the node is not closing it reports the gap, redials with
// capped, jittered backoff on every error, and resumes. It ends when
// the node closes.
//
// A consumer may send frames on the stream (a cluster shard's owned
// set, MsgReshard); the repository echoes each one in-stream. Echoes
// are counted per connection, so a wait for the echo of a frame sent
// on a connection that has since died ends with that connection.
type Subscription struct {
	// Mutex serializes Sends with the connection swap of a resume, so
	// a frame, the wait for its echo and whatever the consumer does
	// after it all happen on one connection. Lock it around Send.
	sync.Mutex
	n    *Node
	addr string
	cfg  netproto.SessionConfig
	h    StreamHandler
	gaps *obs.Counter
	cur  *stream // swapped under the lock, by the receive goroutine only
}

// stream is one connection's life: the frames sent on it and the
// echoes that came back.
type stream struct {
	c      *netproto.Conn
	sent   uint64        // under the subscription's lock
	echoed atomic.Uint64 // in send order
	wake   chan struct{} // holds a token once an echo has arrived
	lost   chan struct{} // closed when the receive loop leaves c
}

func newStream(c *netproto.Conn) *stream {
	return &stream{c: c, wake: make(chan struct{}, 1), lost: make(chan struct{})}
}

// Subscribe dials addr's invalidation stream and returns once the
// repository has acked the Hello. The repository registers a subscriber
// before it acks, so every update applied after Subscribe returns is
// delivered. It also declares the node's delta_invalidation_gaps_total.
func (n *Node) Subscribe(addr string, cfg netproto.SessionConfig, h StreamHandler) (*Subscription, error) {
	s := &Subscription{n: n, addr: addr, cfg: cfg, h: h}
	c, err := s.dial()
	if err != nil {
		return nil, err
	}
	s.cur = newStream(c)
	s.cfg.DialRetry = 0 // a redial paces itself
	s.gaps = n.Reg.NewCounter("delta_invalidation_gaps_total",
		"Invalidation streams lost while not closing; each is followed by a resubscribe.")
	n.Go(s.run)
	n.Go(func() {
		<-n.stop
		s.Lock()
		s.cur.c.Close()
		s.Unlock()
	})
	return s, nil
}

// Echo is a sent frame's place in its connection's echo order.
type Echo struct {
	s   *Subscription
	st  *stream
	seq uint64
}

// Send puts f on the current connection; the caller holds the lock. A
// frame that cannot be sent closes the connection, and the gap path
// takes over.
func (s *Subscription) Send(f netproto.Frame) Echo {
	st := s.cur
	st.sent++
	if err := st.c.Send(f); err != nil {
		s.n.logf("%s: send on the invalidation stream: %v", s.n.name, err)
		st.c.Close()
	}
	return Echo{s, st, st.sent}
}

// Wait returns once the repository has echoed the frame, its
// connection is lost, or the node is closing.
func (e Echo) Wait() {
	for e.st.echoed.Load() < e.seq {
		select {
		case <-e.st.wake:
		case <-e.st.lost:
			return
		case <-e.s.n.stop:
			return
		}
	}
}

// run receives until the node closes, taking the gap path each time the
// stream is lost.
func (s *Subscription) run() {
	for {
		st := s.cur
		err := s.receive(st)
		close(st.lost)
		select {
		case <-s.n.stop:
			return
		default:
		}
		s.gaps.Inc()
		s.n.logf("%s: invalidation stream lost: %v; resubscribing", s.n.name, err)
		s.h.Gap()
		c := s.redial()
		if c == nil {
			return
		}
		s.Lock()
		select {
		case <-s.n.stop:
			c.Close()
			s.Unlock()
			return
		default:
		}
		s.cur = newStream(c)
		s.h.Resume(s)
		s.Unlock()
		s.n.logf("%s: invalidation stream resumed", s.n.name)
	}
}

// receive delivers st's frames until its connection fails, counting
// echoes (MsgReshard) instead of delivering them.
func (s *Subscription) receive(st *stream) error {
	for {
		f, err := st.c.Recv()
		if err != nil {
			return err
		}
		if f.Type != netproto.MsgReshard {
			s.h.Frame(f)
			continue
		}
		st.echoed.Add(1)
		select {
		case st.wake <- struct{}{}:
		default:
		}
	}
}

// redial dials until it connects, or returns nil once the node closes.
func (s *Subscription) redial() *netproto.Conn {
	var b netproto.Backoff
	for {
		select {
		case <-s.n.stop:
			return nil
		case <-time.After(b.Next()):
		}
		if c, err := s.dial(); err == nil {
			return c
		}
	}
}

func (s *Subscription) dial() (*netproto.Conn, error) {
	return netproto.DialConn(s.addr, "invalidations", s.cfg)
}
