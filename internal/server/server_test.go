package server

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

func testRepo(t *testing.T) *Repository {
	t.Helper()
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 12
	scfg.TotalSize = 4 * cost.GB
	scfg.MinObjectSize = 50 * cost.MB
	scfg.MaxObjectSize = cost.GB
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := New(Config{Survey: survey, Scale: netproto.DefaultScale()})
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil survey should fail")
	}
}

func TestAddrBeforeStart(t *testing.T) {
	repo := testRepo(t)
	if got := repo.Addr(); got != "" {
		t.Errorf("Addr before Start = %q, want empty", got)
	}
}

// TestNoticeFilterAndEcho drives the repository's one notice filter,
// the interest set, over raw streams: a subscriber of either role starts
// with nothing registered; an "invalidations" subscriber gets every
// announcement, a "shard-invalidations" one none. Each registration
// frame is echoed in-stream, empty, and from then on the subscriber gets
// the notices of what it registered and not of what it dropped, a drop
// outside the universe ignored. The counters count what was queued and
// what was withheld.
func TestNoticeFilterAndEcho(t *testing.T) {
	repo := testRepo(t)
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	subscribe := func(role string) *netproto.Conn {
		nc, err := net.Dial("tcp", repo.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		return handshake(t, nc, role)
	}
	recv := func(c *netproto.Conn) any {
		t.Helper()
		f, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return f.Body
	}
	interest := func(c *netproto.Conn, register, drop []model.ObjectID) {
		t.Helper()
		if err := c.Send(netproto.Frame{Type: netproto.MsgInterest, Body: netproto.InterestMsg{
			Objects: register, Drop: drop,
		}}); err != nil {
			t.Fatal(err)
		}
		if echo, ok := recv(c).(netproto.InterestMsg); !ok || len(echo.Objects)+len(echo.Drop) != 0 {
			t.Fatalf("echo = %+v, want an empty registration", echo)
		}
	}
	wantNotice := func(c *netproto.Conn, obj model.ObjectID) {
		t.Helper()
		if inv, ok := recv(c).(netproto.InvalidateMsg); !ok || inv.Update.Object != obj {
			t.Fatalf("got %+v, want the notice on object %d", inv, obj)
		}
	}
	update := model.UpdateID(0)
	apply := func(objs ...model.ObjectID) {
		for _, obj := range objs {
			update++
			repo.ApplyUpdate(model.Update{ID: update, Object: obj, Cost: 1, Time: time.Second})
		}
	}
	metric := func(name string) float64 { return repo.Stats().Metric(name) }

	all, shard := subscribe("invalidations"), subscribe("shard-invalidations")
	apply(3) // neither has registered anything yet
	objects := []model.ObjectID{3, 5, 9, 4}
	interest(all, objects, nil)
	interest(shard, []model.ObjectID{3, 4}, nil)
	apply(objects...)
	for _, obj := range objects {
		wantNotice(all, obj)
	}
	for _, obj := range []model.ObjectID{3, 4} {
		wantNotice(shard, obj)
	}
	if n, w := metric("delta_repo_notices_total"), metric("delta_repo_notices_filtered_total"); n != 6 || w != 4 {
		t.Errorf("%v notices queued and %v withheld, want 4 + 2 and 2 + 2", n, w)
	}

	// A birth is announced to the "invalidations" subscriber only: the
	// shard's next frame is its echo.
	if _, err := repo.AddObjects([]model.Birth{{Object: model.Object{ID: 13, Size: cost.MB}, RA: 1, Dec: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recv(all).(netproto.ObjectBirthMsg); !ok {
		t.Fatal("the \"invalidations\" subscriber missed the announcement")
	}

	// One frame registers the newborn and drops 3 and an ID past the
	// universe.
	interest(shard, []model.ObjectID{13}, []model.ObjectID{3, 1 << 30})
	apply(3, 4, 13)
	wantNotice(shard, 4)
	wantNotice(shard, 13)

	// Any other frame ends the stream.
	if err := shard.Send(netproto.Frame{Type: netproto.MsgReshard, Body: netproto.ReshardMsg{Epoch: 1, Owned: []model.ObjectID{3}}}); err != nil {
		t.Fatal(err)
	}
	if f, err := shard.Recv(); err == nil {
		t.Fatalf("stream still open after a stray frame: got %s", f.Type)
	}
}

// TestInterestScopesNotices: a subscriber's registrations (MsgInterest)
// are echoed in-stream, and on either role's stream it gets a notice
// only on a registered object, before its first registration too.
// Withheld notices count in delta_repo_notices_filtered_total. IDs
// outside the universe are ignored, and a registered newborn is heard
// like any object.
func TestInterestScopesNotices(t *testing.T) {
	repo := testRepo(t)
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	subscribe := func(role string) *netproto.Conn {
		nc, err := net.Dial("tcp", repo.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		return handshake(t, nc, role)
	}
	recv := func(c *netproto.Conn) any {
		t.Helper()
		f, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return f.Body
	}
	register := func(c *netproto.Conn, ids ...model.ObjectID) {
		t.Helper()
		if err := c.Send(netproto.Frame{Type: netproto.MsgInterest, Body: netproto.InterestMsg{Objects: ids}}); err != nil {
			t.Fatal(err)
		}
		if echo, ok := recv(c).(netproto.InterestMsg); !ok || len(echo.Objects) != 0 {
			t.Fatalf("echo = %+v, want an empty registration", echo)
		}
	}
	update := model.UpdateID(0)
	apply := func(objs ...model.ObjectID) {
		for _, obj := range objs {
			update++
			repo.ApplyUpdate(model.Update{ID: update, Object: obj, Cost: 1, Time: time.Second})
		}
	}
	wantNotices := func(c *netproto.Conn, objs ...model.ObjectID) {
		t.Helper()
		for _, obj := range objs {
			if inv, ok := recv(c).(netproto.InvalidateMsg); !ok || inv.Update.Object != obj {
				t.Fatalf("got %+v, want the notice on object %d", inv, obj)
			}
		}
	}
	filtered := func() float64 { return repo.Stats().Metric("delta_repo_notices_filtered_total") }

	router, shard := subscribe("invalidations"), subscribe("shard-invalidations")
	register(shard, 3, 4) // what the shard owns
	// The router has registered nothing and hears nothing; the shard
	// hears what it registered.
	apply(3, 5)
	wantNotices(shard, 3)
	register(router, 3, 0, 200)
	apply(3, 4, 5, 200)
	wantNotices(router, 3)
	wantNotices(shard, 3, 4)
	// Withheld: 3 and 5 from the router and 5 from the shard, then 4, 5
	// and 200 from the router and 5 and 200 from the shard.
	if got := filtered(); got != 8 {
		t.Errorf("delta_repo_notices_filtered_total = %v, want 8", got)
	}
	if got := repo.Stats().Metric("delta_dropped_invalidations_total"); got != 0 {
		t.Errorf("withheld notices counted as dropped: %v", got)
	}

	// A newborn is announced to the router; once registered, it is
	// heard.
	if _, err := repo.AddObjects([]model.Birth{{Object: model.Object{ID: 13, Size: cost.MB}, RA: 1, Dec: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recv(router).(netproto.ObjectBirthMsg); !ok {
		t.Fatal("the router missed the announcement")
	}
	apply(13)
	register(router, 13)
	register(shard, 13)
	apply(13, 3)
	wantNotices(router, 13, 3)
	wantNotices(shard, 13, 3)
}

// handshake opens a raw connection the way every dialer must: Hello
// announcing v3, then the ack. For "invalidations" the ack means the
// repository has registered the subscriber.
func handshake(t *testing.T, nc net.Conn, role string) *netproto.Conn {
	t.Helper()
	c := netproto.NewConn(nc)
	if err := c.Send(netproto.Frame{Type: netproto.MsgHello, Body: netproto.Hello{Role: role, Version: netproto.ProtoV3}}); err != nil {
		t.Fatal(err)
	}
	ack, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if body, ok := ack.Body.(netproto.HelloAck); !ok || body.Version != netproto.ProtoV3 {
		t.Fatalf("handshake reply = %s %+v, want hello-ack v3", ack.Type, ack.Body)
	}
	return c
}

func TestRequestResponsesDirect(t *testing.T) {
	repo := testRepo(t)
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	nc, err := net.Dial("tcp", repo.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := handshake(t, nc, "cache")

	// Query execution.
	if err := c.Send(netproto.Frame{Type: netproto.MsgQuery, Body: netproto.QueryMsg{
		Query: model.Query{ID: 1, Objects: []model.ObjectID{1}, Cost: 5 * cost.MB, Time: time.Second},
	}}); err != nil {
		t.Fatal(err)
	}
	reply, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	res, ok := reply.Body.(netproto.QueryResultMsg)
	if !ok {
		t.Fatalf("reply %s", reply.Type)
	}
	if res.Source != "repository" || res.Logical != 5*cost.MB {
		t.Errorf("result = %+v", res)
	}
	if len(res.Payload) == 0 {
		t.Error("scaled payload missing")
	}
	if got := repo.Ledger().QueryShip; got != 5*cost.MB {
		t.Errorf("ledger = %v", got)
	}

	// A batch naming an unknown object fails as a whole, uncharged.
	if err := c.Send(netproto.Frame{Type: netproto.MsgLoadObject, Body: netproto.LoadObjectMsg{Objects: []model.ObjectID{2, 99}}}); err != nil {
		t.Fatal(err)
	}
	reply, err = c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.Body.(netproto.ErrorMsg); !ok {
		t.Errorf("expected error frame, got %s", reply.Type)
	}
	if got := repo.Ledger().ObjectLoad; got != 0 {
		t.Errorf("failed batch charged %v", got)
	}
	// So does an empty one.
	if err := c.Send(netproto.Frame{Type: netproto.MsgLoadObject, Body: netproto.LoadObjectMsg{}}); err != nil {
		t.Fatal(err)
	}
	if reply, err = c.Recv(); err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.Body.(netproto.ErrorMsg); !ok {
		t.Errorf("empty load: expected error frame, got %s", reply.Type)
	}

	// Unknown update shipment fails.
	if err := c.Send(netproto.Frame{Type: netproto.MsgShipUpdates, Body: netproto.ShipUpdatesMsg{
		IDs: []model.UpdateID{12345},
	}}); err != nil {
		t.Fatal(err)
	}
	reply, err = c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.Body.(netproto.ErrorMsg); !ok {
		t.Errorf("expected error frame, got %s", reply.Type)
	}

	// Valid update shipment after a pipeline feed.
	repo.ApplyUpdate(model.Update{ID: 7, Object: 2, Cost: 3 * cost.MB, Time: time.Second})
	if err := c.Send(netproto.Frame{Type: netproto.MsgShipUpdates, Body: netproto.ShipUpdatesMsg{
		IDs: []model.UpdateID{7},
	}}); err != nil {
		t.Fatal(err)
	}
	reply, err = c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ups, ok := reply.Body.(netproto.UpdatesMsg)
	if !ok {
		t.Fatalf("reply %s", reply.Type)
	}
	if len(ups.Updates) != 1 || ups.Updates[0].ID != 7 {
		t.Errorf("updates = %+v", ups.Updates)
	}
	if got := repo.Ledger().UpdateShip; got != 3*cost.MB {
		t.Errorf("update ledger = %v", got)
	}

	// A batched load returns size-accurate metadata in request order,
	// charged once for the summed size.
	want := []model.ObjectID{3, 2, 5}
	if err := c.Send(netproto.Frame{Type: netproto.MsgLoadObject, Body: netproto.LoadObjectMsg{Objects: want}}); err != nil {
		t.Fatal(err)
	}
	reply, err = c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	data, ok := reply.Body.(netproto.ObjectDataMsg)
	if !ok {
		t.Fatalf("reply %s", reply.Type)
	}
	if len(data.Objects) != len(want) {
		t.Fatalf("objects = %+v, want %v", data.Objects, want)
	}
	var total cost.Bytes
	for i, o := range data.Objects {
		if o.ID != want[i] || o.Size <= 0 {
			t.Errorf("object %d = %+v, want ID %d", i, o, want[i])
		}
		total += o.Size
	}
	if len(data.Payload) == 0 {
		t.Error("scaled payload missing")
	}
	if l := repo.Ledger(); l.ObjectLoad != total || l.ObjectLoads != 1 {
		t.Errorf("load ledger = %v over %d charges, want %v in 1", l.ObjectLoad, l.ObjectLoads, total)
	}
}

// TestInvalidationBroadcastNonBlocking: a subscriber that stops reading
// never blocks the pipeline, and once its buffer is full its stream is
// cut — unregistered and closed, so its consumer sees the loss — rather
// than left subscribed with notices silently dropped.
func TestInvalidationBroadcastNonBlocking(t *testing.T) {
	repo := testRepo(t)
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	// Subscribe but never read: the pipeline must not block even with a
	// stalled subscriber.
	nc, err := net.Dial("tcp", repo.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Pin the receive buffer before the server starts pushing.
	// Setting it explicitly disables the kernel's receive-window
	// autotuning, which on hosts with large tcp_rmem ceilings would
	// otherwise absorb every notice below and the stall would never
	// propagate back to the server's drain goroutine (zero drops, a
	// flaky test).
	if tcp, ok := nc.(*net.TCPConn); ok {
		if err := tcp.SetReadBuffer(4096); err != nil {
			t.Fatal(err)
		}
	}
	// The subscriber registers the updated object, reads the echo and
	// then never reads again: a stalled subscriber.
	sub := handshake(t, nc, "invalidations")
	if err := sub.Send(netproto.Frame{Type: netproto.MsgInterest, Body: netproto.InterestMsg{Objects: []model.ObjectID{1}}}); err != nil {
		t.Fatal(err)
	}
	if f, err := sub.Recv(); err != nil || f.Type != netproto.MsgInterest {
		t.Fatalf("registration echo: %v %v", f.Type, err)
	}
	// Push enough notices to overwhelm the subscriber buffer plus
	// whatever the kernel's socket buffers absorb: the stalled reader
	// guarantees a cut at this volume.
	const updates = 200_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < updates; i++ {
			repo.ApplyUpdate(model.Update{
				ID: model.UpdateID(i + 1), Object: 1, Cost: 1,
				Time: time.Duration(i) * time.Millisecond,
			})
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline blocked on a stalled subscriber")
	}
	// The subscriber never read a byte: its stream was cut once, and it
	// is no longer subscribed, so nothing more is dropped on it.
	if got := repo.DroppedInvalidations(); got != 1 {
		t.Errorf("cut streams = %d, want 1 with one stalled subscriber", got)
	}
	if got := repo.Subscribers(); got != 0 {
		t.Errorf("%d subscribers after the cut, want 0", got)
	}
	// What was queued before the cut may still arrive; then the stream
	// ends instead of going quiet.
	if err := nc.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := sub.Recv(); err != nil {
			if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("the cut stream stayed open")
			}
			break
		}
	}

	// The counter is also surfaced over the wire in the stats reply.
	sc, err := net.Dial("tcp", repo.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	cc := handshake(t, sc, "cache")
	if err := cc.Send(netproto.Frame{Type: netproto.MsgStats, Body: netproto.StatsMsg{}}); err != nil {
		t.Fatal(err)
	}
	reply, err := cc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	stats, ok := reply.Body.(netproto.StatsMsg)
	if !ok {
		t.Fatalf("reply %s", reply.Type)
	}
	if stats.DroppedInvalidations != repo.DroppedInvalidations() {
		t.Errorf("StatsMsg dropped = %d, repo reports %d",
			stats.DroppedInvalidations, repo.DroppedInvalidations())
	}
}

// A subscriber that leaves gives up its slot, channel and goroutines at
// once — with no update applied, so no failed send is there to reveal
// it.
func TestDepartedSubscriberUnregistersWithoutUpdates(t *testing.T) {
	repo := testRepo(t)
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	baseline := runtime.NumGoroutine()
	nc, err := net.Dial("tcp", repo.Addr())
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, nc, "invalidations")
	if got := repo.Subscribers(); got != 1 {
		t.Fatalf("Subscribers() = %d after the handshake, want 1", got)
	}
	nc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for repo.Subscribers() != 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("5s after the subscriber left: Subscribers() = %d, goroutines %d (baseline %d)",
				repo.Subscribers(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAddObjectsIngestAndAnnounce(t *testing.T) {
	repo := testRepo(t)
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	// Subscribe to the invalidation stream before publishing.
	nc, err := net.Dial("tcp", repo.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := handshake(t, nc, "invalidations")

	base := repo.cfg.Survey.NumObjects()
	births := []model.Birth{
		{Object: model.Object{ID: model.ObjectID(base + 1), Size: 100 * cost.MB}, RA: 10, Dec: 5, Time: time.Second},
		{Object: model.Object{ID: model.ObjectID(base + 2), Size: 150 * cost.MB}, RA: 200, Dec: -40, Time: time.Second},
	}
	accepted, err := repo.AddObjects(births)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 2 {
		t.Fatalf("accepted = %d, want 2", accepted)
	}
	if born := repo.Stats().Metric("delta_objects_born_total"); born != 2 {
		t.Errorf("delta_objects_born_total = %v", born)
	}
	// Republishing is idempotent: known births are skipped silently.
	accepted, err = repo.AddObjects(births)
	if err != nil || accepted != 0 {
		t.Fatalf("republish accepted %d, err %v; want 0, nil", accepted, err)
	}
	// A gapped birth is an error, and partial batches report progress.
	if _, err := repo.AddObjects([]model.Birth{
		{Object: model.Object{ID: model.ObjectID(base + 9), Size: cost.MB}},
	}); err == nil {
		t.Error("gapped birth should fail")
	}

	// The announcement arrived on the stream exactly once.
	f, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ann, ok := f.Body.(netproto.ObjectBirthMsg)
	if f.Type != netproto.MsgObjectBirth || !ok {
		t.Fatalf("stream sent %s", f.Type)
	}
	if len(ann.Births) != 2 || ann.Births[0].Object.ID != model.ObjectID(base+1) {
		t.Errorf("announcement = %+v", ann.Births)
	}
	if ann.Births[0].Object.Trixel == 0 {
		t.Error("announced birth should carry the inherited trixel")
	}

	// Born objects are loadable and queryable like any other.
	sess, err := netproto.DialSession(repo.Addr(), "client", netproto.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	reply, err := sess.RoundTrip(context.Background(), netproto.Frame{
		Type: netproto.MsgQuery,
		Body: netproto.QueryMsg{Query: model.Query{
			ID: 1, Objects: []model.ObjectID{model.ObjectID(base + 2)}, Cost: cost.MB,
			Tolerance: model.AnyStaleness, Time: time.Minute,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != netproto.MsgQueryResult {
		t.Fatalf("query over born object replied %s", reply.Type)
	}
	reply, err = sess.RoundTrip(context.Background(), netproto.Frame{
		Type: netproto.MsgLoadObject,
		Body: netproto.LoadObjectMsg{Objects: []model.ObjectID{model.ObjectID(base + 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := reply.Body.(netproto.ObjectDataMsg); !ok || len(data.Objects) != 1 || data.Objects[0].Size != 100*cost.MB {
		t.Fatalf("load of born object replied %s (%+v)", reply.Type, reply.Body)
	}
}
