package node

import (
	"slices"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// TestSubscriptionResumesWithPerConnectionEchoes drives one subscription
// against a scripted repository: a wait for a registration sent on a
// connection that dies before its echo ends with that connection,
// unconfirmed; the loss is one gap, followed by a resubscribe whose
// Resume runs — and registers — before any frame of the new connection
// is delivered; the dead connection's registration is forgotten, and
// only an echo on the new connection confirms the new one. Echoes are
// counted, not delivered.
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
	n := New("cache", "", "", t.Logf, nil)
	defer n.Close()
	var sub *Subscription
	subscribed := make(chan struct{})
	sub, err := n.Subscribe(repo.Addr(), "invalidations", netproto.SessionConfig{}, StreamHandler{
		Frame: func(f netproto.Frame) { frames <- f },
		Gap:   func() { gaps <- struct{}{} },
		Resume: func() {
			<-subscribed
			if len(frames) != 0 {
				t.Error("a frame was delivered before the resume")
			}
			sub.Register([]model.ObjectID{7})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(subscribed)
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
	confirmed := func(id model.ObjectID) bool {
		_, ok := sub.Confirmed([]model.ObjectID{id})
		return ok
	}
	echo := netproto.Frame{Type: netproto.MsgInterest, Body: netproto.InterestMsg{}}
	notice := netproto.Frame{Type: netproto.MsgInvalidate, Body: netproto.InvalidateMsg{}}

	// Cut between a registration and its echo: the wait ends with the
	// connection, unconfirmed.
	first := <-conns
	done := make(chan bool)
	go func() { done <- sub.AwaitConfirmed([]model.ObjectID{1}) }()
	recv(sent)
	first.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("a registration was confirmed without its echo")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the wait outlived its connection")
	}
	select {
	case <-gaps:
	case <-time.After(10 * time.Second):
		t.Fatal("no gap reported")
	}

	// The resume's registration goes first on the new connection; the
	// dead connection's was reset with it.
	second := <-conns
	f := recv(sent)
	if body, ok := f.Body.(netproto.InterestMsg); !ok || !slices.Equal(body.Objects, []model.ObjectID{7}) {
		t.Fatalf("resume sent %s %+v first, want the registration of 7", f.Type, f.Body)
	}
	if err := second.Send(notice); err != nil {
		t.Fatal(err)
	}
	if f := recv(frames); f.Type != netproto.MsgInvalidate {
		t.Fatalf("delivered %s, want %s", f.Type, netproto.MsgInvalidate)
	}
	if confirmed(7) {
		t.Fatal("a registration was confirmed before its echo")
	}
	for _, f := range []netproto.Frame{echo, notice} {
		if err := second.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if f := recv(frames); f.Type != netproto.MsgInvalidate {
		t.Fatalf("delivered %s, want %s (echoes are counted, not delivered)", f.Type, netproto.MsgInvalidate)
	}
	for deadline := time.Now().Add(10 * time.Second); !confirmed(7); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the echo on the new connection never confirmed its registration")
		}
	}
	if confirmed(1) {
		t.Error("the dead connection's registration was confirmed")
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
