package node

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/netproto"
)

// flakyListener fails its first Accept calls the way a process out of
// file descriptors does, then accepts for real.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesTransientErrors feeds the runtime a listener
// whose Accept fails twice before a real connection arrives: the
// connection is served, each failure is logged, and Close still returns.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	var (
		mu   sync.Mutex
		logs []string
	)
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, format)
	}
	echo := func(f netproto.Frame) netproto.Frame { return f }
	n := New("test", "", "", logf, echo)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyListener{Listener: ln}
	flaky.failures.Store(2)
	n.ln = flaky
	n.Go(func() { n.acceptLoop(flaky) })

	sess, err := netproto.DialSession(ln.Addr().String(), "client", netproto.SessionConfig{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("dial after two failed accepts: %v", err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := sess.RoundTrip(ctx, netproto.Frame{Type: netproto.MsgStats, Body: netproto.StatsMsg{}})
	if err != nil || reply.Type != netproto.MsgStats {
		t.Fatalf("round trip after two failed accepts: %s, %v", reply.Type, err)
	}
	if left := flaky.failures.Load(); left >= 0 {
		t.Errorf("the listener still owes %d failures: the connection was not accepted after them", left+1)
	}
	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	mu.Lock()
	defer mu.Unlock()
	retries := 0
	for _, l := range logs {
		if strings.Contains(l, "accept:") {
			retries++
		}
	}
	if retries != 2 {
		t.Errorf("logged %d accept retries, want 2 (logs %q)", retries, logs)
	}
}
