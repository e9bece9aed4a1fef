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

// TestNoticeFilterAndEcho drives the subscriber side of the owned-set
// filter over raw streams: a subscriber that sends nothing gets every
// notice and announcement; one that sends its owned set gets the echo
// (with the horizon it was given, lowered to the universe), then only
// the notices of its objects and of objects above the horizon, and no
// announcements. The counter counts what was queued, after the filter.
func TestNoticeFilterAndEcho(t *testing.T) {
	repo := testRepo(t)
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	subscribe := func() *netproto.Conn {
		nc, err := net.Dial("tcp", repo.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		return handshake(t, nc, "invalidations")
	}
	recv := func(c *netproto.Conn) any {
		t.Helper()
		f, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return f.Body
	}
	setFilter := func(c *netproto.Conn, owned []model.ObjectID, horizon, wantHorizon model.ObjectID) {
		t.Helper()
		if err := c.Send(netproto.Frame{Type: netproto.MsgReshard, Body: netproto.ReshardMsg{
			Epoch: 7, Owned: owned, Horizon: horizon,
		}}); err != nil {
			t.Fatal(err)
		}
		echo, ok := recv(c).(netproto.ReshardMsg)
		if !ok || echo.Epoch != 7 || echo.Horizon != wantHorizon || len(echo.Owned) != 0 {
			t.Fatalf("echo = %+v, want epoch 7, horizon %d, no owned list", echo, wantHorizon)
		}
	}
	wantNotice := func(c *netproto.Conn, obj model.ObjectID) {
		t.Helper()
		if inv, ok := recv(c).(netproto.InvalidateMsg); !ok || inv.Update.Object != obj {
			t.Fatalf("got %+v, want the notice on object %d", inv, obj)
		}
	}

	all, shard := subscribe(), subscribe()
	setFilter(shard, []model.ObjectID{3, 4}, 8, 8)
	objects := []model.ObjectID{3, 5, 9, 4}
	for i, obj := range objects {
		repo.ApplyUpdate(model.Update{ID: model.UpdateID(i + 1), Object: obj, Cost: 1, Time: time.Second})
	}
	for _, obj := range objects {
		wantNotice(all, obj)
	}
	for _, obj := range []model.ObjectID{3, 9, 4} {
		wantNotice(shard, obj)
	}
	if got := repo.Stats().Metric("delta_repo_notices_total"); got != 7 {
		t.Errorf("notices = %v, want 4 unfiltered + 3 filtered", got)
	}

	// A birth is announced to the unfiltered subscriber only.
	if _, err := repo.AddObjects([]model.Birth{{Object: model.Object{ID: 13, Size: cost.MB}, RA: 1, Dec: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recv(all).(netproto.ObjectBirthMsg); !ok {
		t.Fatal("unfiltered subscriber missed the announcement")
	}
	repo.ApplyUpdate(model.Update{ID: 10, Object: 4, Cost: 1, Time: time.Second})
	wantNotice(shard, 4)

	// A horizon past the universe (13 objects now) is lowered to it, and
	// a new set replaces the old one.
	setFilter(shard, []model.ObjectID{5}, 1<<30, 13)
	for i, obj := range []model.ObjectID{4, 5, 14} {
		repo.ApplyUpdate(model.Update{ID: model.UpdateID(20 + i), Object: obj, Cost: 1, Time: time.Second})
	}
	wantNotice(shard, 5)
	wantNotice(shard, 14)

	// Any other frame ends the stream.
	if err := shard.Send(netproto.Frame{Type: netproto.MsgStats, Body: netproto.StatsMsg{}}); err != nil {
		t.Fatal(err)
	}
	if f, err := shard.Recv(); err == nil {
		t.Fatalf("stream still open after a stray frame: got %s", f.Type)
	}
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
	sub := handshake(t, nc, "invalidations") // and then never read: a stalled subscriber
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
