package node

import (
	"testing"
	"time"

	"github.com/deltacache/delta/internal/netproto"
)

// TestSubscriptionResumesWithPerConnectionEchoes drives one subscription
// against a scripted repository: a frame sent on a connection that dies
// before its echo stops being waited for; the loss is one gap, followed
// by a resubscribe whose Resume runs — and sends — before any frame of
// the new connection is delivered; and echo counting starts over on the
// new connection.
func TestSubscriptionResumesWithPerConnectionEchoes(t *testing.T) {
	conns := make(chan *netproto.Conn, 4)
	sent := make(chan netproto.Frame, 16) // frames the subscriber sent
	repo := New("repository", "", "", t.Logf, nil)
	repo.Roles = map[string]Serve{"invalidations": func(c *netproto.Conn, hello netproto.Hello) error {
		if _, err := netproto.ServeHandshake(c, hello, 0); err != nil {
			return err
		}
		conns <- c
		for {
			f, err := c.Recv()
			if err != nil {
				return nil
			}
			sent <- f
		}
	}}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	frames := make(chan netproto.Frame, 16)
	gaps := make(chan struct{}, 4)
	owned := netproto.Frame{Type: netproto.MsgReshard, Body: netproto.ReshardMsg{Epoch: 7}}
	n := New("cache", "", "", t.Logf, nil)
	defer n.Close()
	sub, err := n.Subscribe(repo.Addr(), netproto.SessionConfig{}, StreamHandler{
		Frame: func(f netproto.Frame) { frames <- f },
		Gap:   func() { gaps <- struct{}{} },
		Resume: func(s *Subscription) {
			if len(frames) != 0 {
				t.Error("a frame was delivered before the resume")
			}
			s.Send(owned)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	recv := func(ch <-chan netproto.Frame) netproto.Frame {
		t.Helper()
		select {
		case f := <-ch:
			return f
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for a frame")
			return netproto.Frame{}
		}
	}
	echo := netproto.Frame{Type: netproto.MsgReshard, Body: netproto.ReshardMsg{}}
	notice := netproto.Frame{Type: netproto.MsgInvalidate, Body: netproto.InvalidateMsg{}}

	// Cut between a send and its echo: the wait ends with the connection.
	first := <-conns
	sub.Lock()
	pending := sub.Send(owned)
	recv(sent)
	first.Close()
	pending.Wait()
	sub.Unlock()
	select {
	case <-gaps:
	case <-time.After(10 * time.Second):
		t.Fatal("no gap reported")
	}

	// The resume re-sent the owned set first on the new connection.
	second := <-conns
	if f := recv(sent); f.Type != netproto.MsgReshard {
		t.Fatalf("resume sent %s first, want %s", f.Type, netproto.MsgReshard)
	}
	// That frame is seq 1 here: its echo does not satisfy seq 2.
	sub.Lock()
	widen := sub.Send(owned)
	sub.Unlock()
	done := make(chan struct{})
	go func() { widen.Wait(); close(done) }()
	for _, f := range []netproto.Frame{echo, notice} {
		if err := second.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if f := recv(frames); f.Type != netproto.MsgInvalidate {
		t.Fatalf("delivered %s, want %s (echoes are counted, not delivered)", f.Type, netproto.MsgInvalidate)
	}
	select {
	case <-done:
		t.Fatal("the wait for seq 2 ended on the echo of seq 1")
	default:
	}
	if err := second.Send(echo); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the wait never saw its echo")
	}
	if got := sub.gaps.Value(); got != 1 {
		t.Errorf("%d gaps, want 1", got)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 0 {
		t.Error("closing the node was counted as a gap")
	}
}
