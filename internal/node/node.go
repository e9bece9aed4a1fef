// Package node is the accept-side runtime the repository, the cache and the
// router share: one listen → handshake → serve → sever → drain lifecycle, the
// registry and trace ring, the background loops (docs/PROTOCOL.md).
package node

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/obs"
	"github.com/deltacache/delta/internal/persist"
)

// DefaultInterval is Every's period: both persistent roles' snapshot
// cadence. A failed Accept is retried after acceptBackoffMin, doubling
// up to acceptBackoffMax, as net/http does.
const (
	DefaultInterval                    = 30 * time.Second
	acceptBackoffMin, acceptBackoffMax = 5 * time.Millisecond, time.Second
)

// Serve serves one accepted connection whose Hello has been read: it acks
// (netproto.ServeHandshake) once its role is ready, and returns at stream end.
type Serve func(c *netproto.Conn, hello netproto.Hello) error

// Node is one node's runtime. A role embeds it (Start, Addr, DebugAddr and
// Close become the role's own) and sets the exported fields before Start.
type Node struct {
	// Reg and Traces are served on the debug endpoint.
	Reg    *obs.Registry
	Traces *obs.TraceRing
	// Roles is the handler table. A role mapped to nil is request/reply
	// (ack, then netproto.ServeMux over handle); a role missing from a
	// non-nil table is refused; a nil table makes every role request/reply.
	Roles map[string]Serve
	// Unblock runs once the node has stopped accepting and must make
	// every blocked handler and background loop return (close what they
	// wait on); Final runs after all of them have. Both default to no-ops.
	Unblock                     func()
	Final                       func() error
	name, listen, metrics, addr string
	logf                        func(format string, args ...any)
	handle                      func(netproto.Frame) netproto.Frame
	ln                          net.Listener
	debug                       *obs.DebugServer
	stop                        chan struct{}
	once                        sync.Once
	wg                          sync.WaitGroup
	mu                          sync.Mutex
	conns                       map[net.Conn]struct{} // being served; nil once Close has severed them
}

// New creates a node that will listen on addr ("" picks a loopback port)
// and serve the debug endpoint on metricsAddr unless that is "". handle
// answers one request frame; name prefixes errors and log lines.
func New(name, addr, metricsAddr string, logf func(format string, args ...any), handle func(netproto.Frame) netproto.Frame) *Node {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return &Node{
		Reg: obs.NewRegistry(), Traces: obs.NewTraceRing(),
		Unblock: func() {}, Final: func() error { return nil },
		name: name, listen: addr, metrics: metricsAddr, logf: logf, handle: handle,
		stop: make(chan struct{}), conns: make(map[net.Conn]struct{}),
	}
}

// Start binds the wire listener and the debug endpoint and begins
// serving. If the debug endpoint cannot bind, the wire port is released.
func (n *Node) Start() error {
	ln, err := net.Listen("tcp", n.listen)
	if err != nil {
		return fmt.Errorf("%s: listen: %w", n.name, err)
	}
	if n.metrics != "" {
		if n.debug, err = obs.ServeDebug(n.metrics, n.Reg, n.Traces); err != nil {
			ln.Close()
			return fmt.Errorf("%s: metrics listen: %w", n.name, err)
		}
	}
	n.ln, n.addr = ln, ln.Addr().String()
	n.Go(func() { n.acceptLoop(ln) })
	n.logf("%s listening on %s (debug endpoint %q)", n.name, n.addr, n.debug.Addr())
	return nil
}

// Addr and DebugAddr return the bound wire and debug addresses ("" before
// Start, or with no debug endpoint). Done is closed when Close begins.
func (n *Node) Addr() string          { return n.addr }
func (n *Node) DebugAddr() string     { return n.debug.Addr() }
func (n *Node) Done() <-chan struct{} { return n.stop }

// Go runs a loop Close waits for; it must return once Done closes or Unblock has run.
func (n *Node) Go(loop func()) {
	n.wg.Add(1)
	go func() { defer n.wg.Done(); loop() }()
}

// Every runs task every DefaultInterval until Close.
func (n *Node) Every(task func()) {
	n.Go(func() {
		for {
			select {
			case <-n.stop:
				return
			case <-time.After(DefaultInterval):
				task()
			}
		}
	})
}

// ExposeAccounting declares what the repository and the cache both
// account for, read at scrape time: the six delta_ledger_* families from
// l, and the durability gauges from store (0 on a node without one).
func (n *Node) ExposeAccounting(l *cost.Ledger, store *persist.Store) {
	for _, m := range []struct {
		mech               cost.Mechanism
		bytes, count, what string
	}{
		{cost.QueryShip, "delta_ledger_query_ship_bytes_total", "delta_ledger_query_ships_total", "query shipping"},
		{cost.UpdateShip, "delta_ledger_update_ship_bytes_total", "delta_ledger_update_ships_total", "update shipping"},
		{cost.ObjectLoad, "delta_ledger_object_load_bytes_total", "delta_ledger_object_loads_total", "object loading"},
	} {
		n.Reg.NewCounterFunc(m.bytes, "Logical bytes charged to "+m.what+".",
			func() float64 { return float64(l.ByMechanism(m.mech)) })
		n.Reg.NewCounterFunc(m.count, "Transfers charged to "+m.what+".",
			func() float64 { return float64(l.Count(m.mech)) })
	}
	n.Reg.NewGaugeFunc("delta_snapshot_age_seconds", "Age of the newest durability snapshot (0 when persistence is off).",
		func() float64 { return store.SnapshotAge().Seconds() })
	n.Reg.NewGaugeFunc("delta_journal_records", "Durability journal records appended since the last snapshot (what a crash now would replay).",
		func() float64 { return float64(store.JournalRecords()) })
}

// acceptLoop exits only when the listener is closed: any other Accept error
// (EMFILE, ECONNABORTED) is transient, and returning would leave the node deaf.
func (n *Node) acceptLoop(ln net.Listener) {
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			backoff = min(max(2*backoff, acceptBackoffMin), acceptBackoffMax)
			n.logf("%s: accept: %v; retrying in %v", n.name, err, backoff)
			select {
			case <-time.After(backoff):
			case <-n.stop:
			}
			continue
		}
		backoff = 0
		n.mu.Lock()
		if n.conns == nil {
			n.mu.Unlock()
			nc.Close()
			continue
		}
		n.conns[nc] = struct{}{}
		n.mu.Unlock()
		n.Go(func() {
			if err := n.serveConn(netproto.NewConn(nc)); err != nil && !netproto.IsClosed(err) {
				n.logf("%s: peer %s: %v", n.name, nc.RemoteAddr(), err)
			}
			n.mu.Lock()
			delete(n.conns, nc)
			n.mu.Unlock()
			nc.Close()
		})
	}
}

// serveConn is the life of one connection: Hello, role lookup, serve.
func (n *Node) serveConn(c *netproto.Conn) error {
	hello, err := netproto.ReadHello(c)
	if err != nil {
		return err
	}
	serve, known := n.Roles[hello.Role]
	if n.Roles != nil && !known {
		return netproto.Refuse(c, fmt.Errorf("%s: unknown role %q", n.name, hello.Role))
	}
	if serve != nil {
		return serve(c, hello)
	}
	if _, err := netproto.ServeHandshake(c, hello, 0); err != nil {
		return err
	}
	return netproto.ServeMux(c, 0, n.handle, n.logf)
}

// Close stops the node in the one order every role shares: stop
// accepting and close the debug endpoint; Unblock; sever every accepted
// connection, so peers see a closed stream; wait for every handler and
// loop; Final. Safe before Start; a second Close returns nil.
func (n *Node) Close() (err error) {
	n.once.Do(func() {
		close(n.stop)
		if n.ln != nil {
			err = n.ln.Close()
		}
		n.debug.Close()
		n.Unblock()
		n.mu.Lock()
		for nc := range n.conns {
			nc.Close()
		}
		n.conns = nil
		n.mu.Unlock()
		n.wg.Wait()
		err = errors.Join(err, n.Final())
	})
	return err
}
