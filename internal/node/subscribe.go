package node

import (
	"sync"
	"time"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/model"
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
//
// A consumer may also scope the stream to the objects it registers
// (Register, MsgInterest): from the first registration the repository
// installs, it withholds every notice on an object not registered. The
// bookkeeping is a core.Interest, which a pump goroutine drives: it
// sends the pending registrations as one frame, at most one in flight,
// and an object is confirmed only when that frame's echo comes back. A
// gap resets it, because the new stream carries every notice until its
// own first registration.
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
	// wmu orders every frame onto the current connection and guards
	// cur: Sends hold it inside the lock above, the pump's registrations
	// without it, and a resume swaps cur under both.
	wmu sync.Mutex
	cur *stream

	// imu guards interest and changed, which is closed and replaced
	// whenever a batch settles or a gap resets the interest. wake holds
	// a token when the pump has work.
	imu      sync.Mutex
	interest *core.Interest
	changed  chan struct{}
	wake     chan struct{}
}

// stream is one connection's life: the frames sent on it and the
// echoes that came back. A reshard and the pump may each wait for an
// echo at once, so every echo wakes every waiter.
type stream struct {
	c    *netproto.Conn
	sent uint64 // under the subscription's wmu
	mu   sync.Mutex
	// echoed counts the echoes, in send order; arrived is closed and
	// replaced at each one.
	echoed  uint64
	arrived chan struct{}
	lost    chan struct{} // closed when the receive loop leaves c
}

func newStream(c *netproto.Conn) *stream {
	return &stream{c: c, arrived: make(chan struct{}), lost: make(chan struct{})}
}

// echoes reports how many echoes have arrived, and a channel closed at
// the next one.
func (st *stream) echoes() (uint64, <-chan struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.echoed, st.arrived
}

func (st *stream) echo() {
	st.mu.Lock()
	st.echoed++
	close(st.arrived)
	st.arrived = make(chan struct{})
	st.mu.Unlock()
}

// Subscribe dials addr's invalidation stream and returns once the
// repository has acked the Hello. The repository registers a subscriber
// before it acks, so every update applied after Subscribe returns is
// delivered. It also declares the node's delta_invalidation_gaps_total.
func (n *Node) Subscribe(addr string, cfg netproto.SessionConfig, h StreamHandler) (*Subscription, error) {
	s := &Subscription{
		n: n, addr: addr, cfg: cfg, h: h,
		interest: core.NewInterest(),
		changed:  make(chan struct{}),
		wake:     make(chan struct{}, 1),
	}
	c, err := s.dial()
	if err != nil {
		return nil, err
	}
	s.cur = newStream(c)
	s.cfg.DialRetry = 0 // a redial paces itself
	s.gaps = n.Reg.NewCounter("delta_invalidation_gaps_total",
		"Invalidation streams lost while not closing; each is followed by a resubscribe.")
	n.Go(s.run)
	n.Go(s.pump)
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

// Send puts f on the current connection. A consumer holds the lock
// around it, so that the frame, the wait for its echo and what it does
// after all happen on one connection; the pump's registrations need no
// such guarantee and do not take it. A frame that cannot be sent closes
// the connection, and the gap path takes over.
func (s *Subscription) Send(f netproto.Frame) Echo {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	st := s.cur
	st.sent++
	if err := st.c.Send(f); err != nil {
		s.n.logf("%s: send on the invalidation stream: %v", s.n.name, err)
		st.c.Close()
	}
	return Echo{s, st, st.sent}
}

// Wait returns once the repository has echoed the frame, its
// connection is lost, or the node is closing, and reports whether the
// echo came.
func (e Echo) Wait() bool {
	for {
		n, arrived := e.st.echoes()
		if n >= e.seq {
			return true
		}
		select {
		case <-arrived:
		case <-e.st.lost:
			n, _ := e.st.echoes()
			return n >= e.seq
		case <-e.s.n.stop:
			return false
		}
	}
}

// Register registers ids on the stream, unless they already are, and
// reports whether every one is confirmed: its registration echoed on
// the current connection. It does not wait; AwaitConfirmed does.
func (s *Subscription) Register(ids []model.ObjectID) bool {
	s.imu.Lock()
	confirmed := s.interest.Want(ids)
	s.imu.Unlock()
	if !confirmed {
		s.wakePump()
	}
	return confirmed
}

// Confirmed reports whether every id is confirmed, registering none,
// and the generation the answer holds for: a gap moves it on (Gen).
func (s *Subscription) Confirmed(ids []model.ObjectID) (gen uint64, ok bool) {
	s.imu.Lock()
	defer s.imu.Unlock()
	return s.interest.Gen(), s.interest.Confirmed(ids)
}

// Gen is the generation of the registrations; each gap moves it on.
func (s *Subscription) Gen() uint64 {
	s.imu.Lock()
	defer s.imu.Unlock()
	return s.interest.Gen()
}

// AwaitConfirmed registers ids and waits until every one is confirmed.
// It reports false when the connection current at the call is lost, a
// gap resets the registrations, or the node closes: the consumer's gap
// path then owns whatever it was about to do. Like Echo.Wait it ends
// with its connection, so a caller holding the lock a resume needs
// cannot wait for a registration only the resume could send.
func (s *Subscription) AwaitConfirmed(ids []model.ObjectID) bool {
	s.wmu.Lock()
	lost := s.cur.lost
	s.wmu.Unlock()
	s.imu.Lock()
	gen := s.interest.Gen()
	for !s.interest.Want(ids) {
		ch := s.changed
		s.imu.Unlock()
		s.wakePump()
		select {
		case <-ch:
		case <-lost:
			return false
		case <-s.n.stop:
			return false
		}
		s.imu.Lock()
		if s.interest.Gen() != gen {
			s.imu.Unlock()
			return false
		}
	}
	s.imu.Unlock()
	return true
}

func (s *Subscription) wakePump() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pump sends the pending registrations, one batch at a time, until the
// node closes.
func (s *Subscription) pump() {
	for {
		select {
		case <-s.wake:
		case <-s.n.stop:
			return
		}
		for s.flushInterest() {
		}
	}
}

// flushInterest sends the pending registrations as one frame and waits
// for its echo. It reports false when nothing was sent or the echo did
// not come; a dead connection waits for its resume, which wakes the
// pump again.
func (s *Subscription) flushInterest() bool {
	s.wmu.Lock()
	st := s.cur
	s.wmu.Unlock()
	select {
	case <-st.lost:
		return false
	default:
	}
	s.imu.Lock()
	batch, gen, ok := s.interest.Next()
	s.imu.Unlock()
	if !ok {
		return false
	}
	echoed := s.Send(netproto.Frame{Type: netproto.MsgInterest, Body: netproto.InterestMsg{Objects: batch}}).Wait()
	s.imu.Lock()
	if echoed {
		s.interest.Echoed(gen)
	} else {
		s.interest.Lost(gen)
	}
	s.settledLocked()
	s.imu.Unlock()
	return echoed
}

// settledLocked wakes every AwaitConfirmed; imu is held.
func (s *Subscription) settledLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
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
		s.imu.Lock()
		s.interest.Reset()
		s.settledLocked()
		s.imu.Unlock()
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
		s.wmu.Lock()
		s.cur = newStream(c)
		s.wmu.Unlock()
		s.h.Resume(s)
		s.Unlock()
		s.wakePump() // registrations made during the gap go out now
		s.n.logf("%s: invalidation stream resumed", s.n.name)
	}
}

// receive delivers st's frames until its connection fails, counting
// echoes (MsgReshard, MsgInterest) instead of delivering them.
func (s *Subscription) receive(st *stream) error {
	for {
		f, err := st.c.Recv()
		if err != nil {
			return err
		}
		if f.Type != netproto.MsgReshard && f.Type != netproto.MsgInterest {
			s.h.Frame(f)
			continue
		}
		st.echo()
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
