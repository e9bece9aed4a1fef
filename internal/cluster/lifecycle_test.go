package cluster_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/persist"
	"github.com/deltacache/delta/internal/server"
)

// lifecycleNode is the surface all three node kinds get from the shared
// runtime.
type lifecycleNode interface {
	Start() error
	Addr() string
	Close() error
}

// lifecycleRepository builds (and does not start) a repository over the
// test survey at the default payload scale.
func lifecycleRepository(t *testing.T, cfg server.Config) *server.Repository {
	t.Helper()
	cfg.Survey, cfg.Scale = testSurvey(t), netproto.DefaultScale()
	repo, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	return repo
}

// lifecycleCache builds (and does not start) a cache that ships every
// query to repo: standalone, or a cluster shard for a router to reshard.
func lifecycleCache(t *testing.T, repo *server.Repository, addr, metricsAddr string, shard bool) *cache.Middleware {
	t.Helper()
	mw, err := cache.New(cache.Config{
		Addr:        addr,
		MetricsAddr: metricsAddr,
		RepoAddr:    repo.Addr(),
		Policy:      core.NewNoCache(),
		Objects:     testSurvey(t).Objects(),
		Shard:       shard,
		Capacity:    8 * cost.GB,
		Scale:       netproto.DefaultScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mw.Close() })
	return mw
}

// nodeKinds builds one not-yet-started node of each kind on addr, over
// whatever started nodes it needs behind it. backend is the repository
// at the end of the node's query path (the node itself for a
// repository).
var nodeKinds = []struct {
	name  string
	build func(t *testing.T, addr, metricsAddr string) (n lifecycleNode, backend *server.Repository)
}{
	{"repository", func(t *testing.T, addr, metricsAddr string) (lifecycleNode, *server.Repository) {
		repo := lifecycleRepository(t, server.Config{Addr: addr, MetricsAddr: metricsAddr})
		return repo, repo
	}},
	{"cache", func(t *testing.T, addr, metricsAddr string) (lifecycleNode, *server.Repository) {
		repo := startedRepository(t)
		return lifecycleCache(t, repo, addr, metricsAddr, false), repo
	}},
	{"router", func(t *testing.T, addr, metricsAddr string) (lifecycleNode, *server.Repository) {
		repo := startedRepository(t)
		shard := lifecycleCache(t, repo, "", "", true)
		if err := shard.Start(); err != nil {
			t.Fatal(err)
		}
		own, err := core.NewOwnership(testSurvey(t).Objects(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		router, err := cluster.NewRouter(cluster.Config{
			Addr:        addr,
			MetricsAddr: metricsAddr,
			Shards:      []string{shard.Addr()},
			Ownership:   own,
			RepoAddr:    repo.Addr(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { router.Close() })
		return router, repo
	}},
}

func startedRepository(t *testing.T) *server.Repository {
	t.Helper()
	repo := lifecycleRepository(t, server.Config{})
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	return repo
}

// dialPeer opens one handshaken connection to a node.
func dialPeer(t *testing.T, addr, role string) *netproto.Conn {
	t.Helper()
	c, err := netproto.DialConn(addr, role, netproto.SessionConfig{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// closeWithin requires n.Close to return nil within a second. If it
// does not, the peers are hung up on first, so that a node that only
// stops once its peers have left still lets the test finish.
func closeWithin(t *testing.T, n lifecycleNode, peers []*netproto.Conn) {
	t.Helper()
	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(time.Second):
		for _, c := range peers {
			c.Close()
		}
		t.Fatal("Close did not return within 1s with its peers still connected")
	}
}

// TestNodeLifecycle drives the one listen → serve → sever → drain
// lifecycle through every node kind: Close returns promptly whatever
// its peers are doing, each peer sees its stream closed rather than a
// hang, Close is idempotent and safe before Start, a failed Start
// leaves nothing bound, and the goroutine count returns to what it was
// before Start.
func TestNodeLifecycle(t *testing.T) {
	// inFlight queries whose replies (2 TB logical, MaxFrame/2 physical
	// at the default scale) together far outgrow the loopback buffers:
	// the peer never reads, so the node's reply writes block and its
	// handlers are still in flight when Close is called. Each query names
	// its own object, so a router cannot coalesce them into one.
	const inFlight = 4
	query := func(i int) netproto.Frame {
		return netproto.Frame{Type: netproto.MsgQuery, RequestID: uint64(i + 1), Body: netproto.QueryMsg{Query: model.Query{
			ID: model.QueryID(i + 1), Objects: []model.ObjectID{model.ObjectID(i + 1)}, Cost: 2 * cost.TB,
			Tolerance: model.AnyStaleness, Time: time.Second,
		}}}
	}
	rows := []struct {
		name  string
		only  string // the one node kind the row applies to; "" means all
		peers func(t *testing.T, addr string, backend *server.Repository) []*netproto.Conn
	}{
		{name: "idle-peer", peers: func(t *testing.T, addr string, _ *server.Repository) []*netproto.Conn {
			return []*netproto.Conn{dialPeer(t, addr, "client")}
		}},
		{name: "request-in-flight", peers: func(t *testing.T, addr string, backend *server.Repository) []*netproto.Conn {
			c := dialPeer(t, addr, "client")
			for i := 0; i < inFlight; i++ {
				if err := c.Send(query(i)); err != nil {
					t.Fatal(err)
				}
			}
			waitUntil(t, "every query reaches the repository", func() bool { return backend.Stats().Queries == inFlight })
			return []*netproto.Conn{c}
		}},
		// The feeder is the in-process pipeline: ApplyUpdate.
		{name: "subscriber-and-feeder", only: "repository", peers: func(t *testing.T, addr string, repo *server.Repository) []*netproto.Conn {
			sub := dialPeer(t, addr, "invalidations")
			repo.ApplyUpdate(model.Update{ID: 1, Object: 1, Cost: cost.KB, Time: time.Second})
			if f, err := sub.Recv(); err != nil || f.Type != netproto.MsgInvalidate {
				t.Fatalf("subscriber received %s, %v; want the fed update's notice", f.Type, err)
			}
			return []*netproto.Conn{sub}
		}},
	}
	for _, kind := range nodeKinds {
		for _, row := range rows {
			if row.only != "" && row.only != kind.name {
				continue
			}
			t.Run(kind.name+"/"+row.name, func(t *testing.T) {
				n, backend := kind.build(t, "", "")
				baseline := runtime.NumGoroutine()
				if err := n.Start(); err != nil {
					t.Fatal(err)
				}
				peers := row.peers(t, n.Addr(), backend)
				closeWithin(t, n, peers)
				for _, c := range peers {
					ended := make(chan struct{})
					go func() {
						defer close(ended)
						// A request cut off in flight may be answered with
						// an error before the stream ends.
						for _, err := c.Recv(); err == nil; _, err = c.Recv() {
						}
					}()
					select {
					case <-ended:
					case <-time.After(time.Second):
						t.Error("a peer's stream is still open 1s after Close returned")
						c.Close()
						<-ended
					}
				}
				if err := n.Close(); err != nil {
					t.Errorf("second Close: %v", err)
				}
				for _, c := range peers {
					c.Close()
				}
				waitUntil(t, "goroutines return to the baseline", func() bool { return runtime.NumGoroutine() <= baseline })
			})
		}
		t.Run(kind.name+"/close-before-start", func(t *testing.T) {
			n, _ := kind.build(t, "", "")
			baseline := runtime.NumGoroutine()
			for i := 0; i < 2; i++ {
				if err := n.Close(); err != nil {
					t.Errorf("Close %d of a node that never started: %v", i+1, err)
				}
			}
			waitUntil(t, "goroutines return to the baseline", func() bool { return runtime.NumGoroutine() <= baseline })
		})
		t.Run(kind.name+"/metrics-port-occupied", func(t *testing.T) {
			occupied, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer occupied.Close()
			wire := freeAddr(t)
			n, _ := kind.build(t, wire, occupied.Addr().String())
			if err := n.Start(); err == nil {
				t.Fatal("Start succeeded with the metrics port occupied")
			}
			ln, err := net.Listen("tcp", wire)
			if err != nil {
				t.Fatalf("the wire port stayed bound after Start failed: %v", err)
			}
			ln.Close()
		})
	}
}

// TestRepositoryCloseWithLivePeerWritesFinalSnapshot: a persistent
// repository closed under a live cache session still lands its final
// snapshot. The assertion is on the snapshot's own timestamp; recovering
// the birth proves nothing, since the journal alone replays it.
func TestRepositoryCloseWithLivePeerWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	repo := lifecycleRepository(t, server.Config{DataDir: dir})
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	sess, err := netproto.DialSession(repo.Addr(), "cache", netproto.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	birth := model.Birth{Object: model.Object{ID: testSurvey(t).NextID(), Size: 200 * cost.MB}, RA: 120, Dec: 10}
	if n, err := repo.AddObjects([]model.Birth{birth}); n != 1 || err != nil {
		t.Fatalf("AddObjects = %d, %v", n, err)
	}
	if got := repo.Stats().Metric("delta_journal_records"); got != 1 {
		t.Fatalf("journal holds %v records after one birth, want 1", got)
	}
	before := time.Now()
	closeWithin(t, repo, nil)
	if age, since := repo.Stats().Metric("delta_snapshot_age_seconds"), time.Since(before); age > since.Seconds() {
		t.Errorf("newest snapshot is %v old %v after Close was called: Close wrote none", age, since)
	}
	store, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if st, err := store.Recover(); err != nil || st == nil || len(st.Births) != 1 {
		t.Errorf("reopened store recovered %+v, %v; want the one birth", st, err)
	}
}
