package node

import (
	"math"
	"math/rand/v2"
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
	// consumer's registrations, in stream order.
	Frame func(netproto.Frame)
	// Gap runs when the stream is lost while the node is not closing,
	// with the registrations already reset: a new generation has begun
	// (Gen), and nothing is confirmed. Nothing is delivered until
	// Resume, and the repository keeps nothing for a subscriber that is
	// away: whatever the consumer answers from must fail closed here.
	Gap func()
	// Resume runs on each fresh connection after a gap, before any of
	// its frames is delivered, with the registrations already reset:
	// what it registers goes out on the new connection.
	Resume func()
}

// Subscription is a consumer's end of the repository's invalidation
// stream, written once for every role that consumes one. It dials and
// handshakes, delivers frames to its handler, and when the stream is
// lost while the node is not closing it reports the gap, redials with
// capped, jittered backoff on every error, and resumes. It ends when
// the node closes.
//
// A stream carries the notices of what its consumer registers (Register,
// Unregister, MsgInterest) and nothing else: every stream, of either
// role, starts with nothing registered. The bookkeeping is a
// core.Interest, which a pump goroutine drives: it sends the pending
// registrations and drops as one frame, at most one in flight, and an
// object is confirmed only when that frame's echo comes back on the
// connection it was sent on. Each connection's Hello names its stream,
// so a load can register its objects on it (Load, Loaded): the load's
// reply is then the echo. A gap resets the registrations, because the
// new stream starts over.
type Subscription struct {
	n    *Node
	addr string
	role string
	cfg  netproto.SessionConfig
	h    StreamHandler
	// gaps and notices count lost streams and the update notices handled.
	gaps, notices *obs.Counter
	// mu guards cur, which a resume swaps.
	mu  sync.Mutex
	cur *stream

	// imu guards interest, changed, which is closed and replaced
	// whenever a batch or a load settles or a gap resets the interest,
	// and name, the current stream's name, which is 0 from a gap until
	// the resumed stream is in place. wake holds a token when the pump
	// has work.
	imu      sync.Mutex
	interest *core.Interest
	changed  chan struct{}
	name     int64
	wake     chan struct{}
}

// stream is one connection's life. The pump keeps at most one
// registration frame in flight on it, so every echo is that frame's.
type stream struct {
	c    *netproto.Conn
	name int64         // Hello.Stream
	echo chan struct{} // a token per echo
	lost chan struct{} // closed when the receive loop leaves c
}

// Subscribe dials addr's invalidation stream under role
// ("invalidations", or a cluster shard's "shard-invalidations") and
// returns once the repository has acked the Hello. The repository
// registers a subscriber before it acks, so every update applied after
// Subscribe returns is delivered, as far as the stream's registrations
// pass it. It also declares the node's delta_invalidation_gaps_total
// and delta_invalidation_notices_total.
func (n *Node) Subscribe(addr, role string, cfg netproto.SessionConfig, h StreamHandler) (*Subscription, error) {
	s := &Subscription{
		n: n, addr: addr, role: role, cfg: cfg, h: h,
		interest: core.NewInterest(),
		changed:  make(chan struct{}),
		wake:     make(chan struct{}, 1),
	}
	st, err := s.dial()
	if err != nil {
		return nil, err
	}
	s.cur, s.name = st, st.name
	s.cfg.DialRetry = 0 // a redial paces itself
	s.gaps = n.Reg.NewCounter("delta_invalidation_gaps_total",
		"Invalidation streams lost while not closing; each is followed by a resubscribe.")
	s.notices = n.Reg.NewCounter("delta_invalidation_notices_total",
		"Update notices received on the invalidation stream and handled.")
	n.Go(s.run)
	n.Go(s.pump)
	n.Go(func() {
		<-n.stop
		s.mu.Lock()
		s.cur.c.Close()
		s.mu.Unlock()
	})
	return s, nil
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

// Unregister drops ids' registrations on the stream: they are no
// longer confirmed, and the repository stops passing their notices once
// the pump's next frame is installed. Nothing waits for that.
func (s *Subscription) Unregister(ids []model.ObjectID) {
	if len(ids) == 0 {
		return
	}
	s.imu.Lock()
	s.interest.Drop(ids)
	s.imu.Unlock()
	s.wakePump()
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

// Load readies a load of ids that registers them on the stream, and
// returns the stream for the load to name (LoadObjectMsg.Stream) and
// the generation to settle it with (Loaded). It first waits out a drop
// of any of them that is in flight (core.Interest.Load). From a gap
// until the resumed stream is in place, and once the connection or the
// node closes while it waits, it names no stream: such a load registers
// nothing, and the resume evicts what it loaded.
func (s *Subscription) Load(ids []model.ObjectID) (stream int64, gen uint64) {
	s.await(func(in *core.Interest) bool {
		stream, gen = 0, in.Gen()
		if s.name != 0 && in.Load(ids) {
			stream = s.name
		}
		return stream != 0 || s.name == 0
	})
	return stream, gen
}

// Loaded settles a load readied by Load in generation gen; ok reports
// that the repository served it.
func (s *Subscription) Loaded(gen uint64, ids []model.ObjectID, ok bool) {
	s.imu.Lock()
	s.interest.Loaded(gen, ids, ok)
	s.settledLocked()
	s.imu.Unlock()
	s.wakePump()
}

// AwaitConfirmed registers ids and waits until every one is confirmed.
// It reports false when the connection current at the call is lost, a
// gap resets the registrations, or the node closes: the consumer's gap
// path then owns whatever it was about to do. It ends with its
// connection, so a caller that the gap path waits on cannot wait for a
// registration only the resume could send.
func (s *Subscription) AwaitConfirmed(ids []model.ObjectID) bool {
	return s.await(func(in *core.Interest) bool { return in.Want(ids) })
}

// AwaitDropped waits until every drop of ids that Unregister queued has
// been echoed (core.Interest.Dropped), so the repository passes none of
// their notices. It ends as AwaitConfirmed does.
func (s *Subscription) AwaitDropped(ids []model.ObjectID) bool {
	return s.await(func(in *core.Interest) bool { return in.Dropped(ids) })
}

// await is the subscription's one wait: until done, which runs with imu
// held, holds for the interest, waking the pump while it does not. It
// reports false as AwaitConfirmed does.
func (s *Subscription) await(done func(*core.Interest) bool) bool {
	s.mu.Lock()
	lost := s.cur.lost
	s.mu.Unlock()
	s.imu.Lock()
	gen := s.interest.Gen()
	for !done(s.interest) {
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

// pump sends the pending registrations and drops, one batch at a time,
// until the node closes.
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

// flushInterest sends the pending registrations and drops as one frame
// and waits for its echo. It reports false when nothing was sent or the
// echo did not come; a dead connection waits for its resume, which
// wakes the pump again.
func (s *Subscription) flushInterest() bool {
	s.mu.Lock()
	st := s.cur
	s.mu.Unlock()
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
	echoed := s.sendAndWait(st, netproto.Frame{Type: netproto.MsgInterest, Body: netproto.InterestMsg{
		Objects: batch.Want, Drop: batch.Drop,
	}})
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

// sendAndWait puts f on st and waits for its echo. It reports false
// when the frame cannot be sent, which closes the connection and leaves
// the rest to the gap path, when the connection is lost before the echo
// comes, and when the node closes.
func (s *Subscription) sendAndWait(st *stream, f netproto.Frame) bool {
	if err := st.c.Send(f); err != nil {
		s.n.logf("%s: send on the invalidation stream: %v", s.n.name, err)
		st.c.Close()
		return false
	}
	select {
	case <-st.echo:
		return true
	case <-st.lost:
		// The receive loop counts an echo before it leaves.
		select {
		case <-st.echo:
			return true
		default:
			return false
		}
	case <-s.n.stop:
		return false
	}
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
		s.imu.Lock()
		s.interest.Reset()
		s.name = 0
		s.settledLocked()
		s.imu.Unlock()
		s.h.Gap()
		st = s.redial()
		if st == nil {
			return
		}
		s.mu.Lock()
		select {
		case <-s.n.stop:
			st.c.Close()
			s.mu.Unlock()
			return
		default:
		}
		s.cur = st
		s.mu.Unlock()
		s.imu.Lock()
		s.name = st.name
		s.imu.Unlock()
		s.h.Resume()
		s.wakePump() // registrations made during the gap go out now
		s.n.logf("%s: invalidation stream resumed", s.n.name)
	}
}

// receive delivers st's frames until its connection fails, counting
// echoes (MsgInterest) instead of delivering them, and notices once
// handled.
func (s *Subscription) receive(st *stream) error {
	for {
		f, err := st.c.Recv()
		if err != nil {
			return err
		}
		if f.Type != netproto.MsgInterest {
			s.h.Frame(f)
			if f.Type == netproto.MsgInvalidate {
				s.notices.Inc()
			}
			continue
		}
		select {
		case st.echo <- struct{}{}:
		default: // more echoes than frames sent: none is waited for
		}
	}
}

// redial dials until it connects, or returns nil once the node closes.
func (s *Subscription) redial() *stream {
	var b netproto.Backoff
	for {
		select {
		case <-s.n.stop:
			return nil
		case <-time.After(b.Next()):
		}
		if st, err := s.dial(); err == nil {
			return st
		}
	}
}

// dial opens a stream under a fresh random non-zero name.
func (s *Subscription) dial() (*stream, error) {
	name := rand.Int64N(math.MaxInt64) + 1
	c, err := netproto.DialConn(s.addr, netproto.Hello{Role: s.role, Stream: name}, s.cfg)
	if err != nil {
		return nil, err
	}
	return &stream{c: c, name: name, echo: make(chan struct{}, 1), lost: make(chan struct{})}, nil
}
