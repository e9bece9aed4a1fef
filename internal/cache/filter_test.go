package cache_test

import (
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
	"github.com/deltacache/delta/internal/sim"
)

// noticeLog records, in order, the updates that reach a shard's policy
// across every policy a reshard builds.
type noticeLog struct {
	mu  sync.Mutex
	ids []model.UpdateID
}

func (l *noticeLog) snapshot() []model.UpdateID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.ids)
}

// loggingVCover is VCover (so the shard can grow and reshard) with its
// notices logged. It forwards VCover's methods by hand, as a timing
// decorator does, so it hides VCover's ScopedNotices marker: its shard
// registers what it owns and hears every owned notice, the stream the
// ownership oracle decides by. scopedLoggingVCover keeps the marker.
type loggingVCover struct {
	vc  *core.VCover
	log *noticeLog
}

func newLoggingVCover(log *noticeLog) loggingVCover {
	return loggingVCover{vc: core.NewVCover(core.DefaultVCoverConfig()), log: log}
}

func (p loggingVCover) Name() string { return p.vc.Name() }
func (p loggingVCover) Init(objects []model.Object, capacity cost.Bytes) error {
	return p.vc.Init(objects, capacity)
}
func (p loggingVCover) OnQuery(q *model.Query) (core.Decision, error) { return p.vc.OnQuery(q) }
func (p loggingVCover) AddObjects(objs []model.Object) (core.Decision, error) {
	return p.vc.AddObjects(objs)
}
func (p loggingVCover) Warm(ids []model.ObjectID) ([]model.ObjectID, error) { return p.vc.Warm(ids) }
func (p loggingVCover) Forget(ids []model.ObjectID, capacity cost.Bytes) (core.Decision, error) {
	return p.vc.Forget(ids, capacity)
}

func (p loggingVCover) OnUpdate(u *model.Update) (core.Decision, error) {
	p.log.mu.Lock()
	p.log.ids = append(p.log.ids, u.ID)
	p.log.mu.Unlock()
	return p.vc.OnUpdate(u)
}

// scopedLoggingVCover is loggingVCover with VCover's ScopedNotices
// marker kept: its shard registers the objects it sees and hears only
// their notices, as a bare VCover shard does.
type scopedLoggingVCover struct{ loggingVCover }

func (scopedLoggingVCover) ScopedNotices() {}

// filterModel is the oracle: a shard behind a full stream, which
// applies a notice iff the shard owns the object when it arrives. known
// is the shard's universe, which decides whether a grant adds anything.
type filterModel struct {
	owned, known map[model.ObjectID]bool
	applied      []model.UpdateID
}

// cutProxy relays a node's repository connections frame by frame so a
// test can cut its invalidation streams: all of them at once (cut), or
// the next one right after it forwards the node's next registration
// (MsgInterest), before the repository's echo can come back (armed).
// opened gets a token each time a stream's Hello reaches the
// repository: at the subscription, and at each resubscribe. A test may
// also watch what the node sends the repository and act the moment an
// interest echo reaches the proxy, before the node sees it (watch), and
// keep a resubscribing node away from the repository, and every
// interest echo away from its node, until it lets go (hold).
type cutProxy struct {
	ln      net.Listener
	target  string
	armed   atomic.Bool
	opened  chan struct{}
	mu      sync.Mutex
	sent    func(netproto.Frame)
	echoed  func()
	gate    chan struct{}         // non-nil while held
	streams map[net.Conn]net.Conn // shard side → repository side
}

// hold makes every invalidation stream opened from now on wait, after
// its Hello, and every interest echo (MsgInterest) wait before it is
// forwarded, until release: the node is away from the stream, or its
// registrations unconfirmed, for as long as the test needs.
func (p *cutProxy) hold() {
	p.mu.Lock()
	p.gate = make(chan struct{})
	p.mu.Unlock()
}

// release lets the streams that hold stopped reach the repository.
func (p *cutProxy) release() {
	p.mu.Lock()
	close(p.gate)
	p.gate = nil
	p.mu.Unlock()
}

// watch sets the hooks connections dialed from now on run: sent sees
// every frame the node sends the repository, Hellos included, before
// the proxy forwards it, and echoed runs on each interest echo before
// the proxy forwards it.
func (p *cutProxy) watch(sent func(netproto.Frame), echoed func()) {
	p.mu.Lock()
	p.sent, p.echoed = sent, echoed
	p.mu.Unlock()
}

func startCutProxy(t *testing.T, target string) *cutProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// opened is sized above the streams one trial can open (one, plus at
	// most two cuts per step), so a relay never blocks on it.
	p := &cutProxy{ln: ln, target: target, opened: make(chan struct{}, 64), streams: make(map[net.Conn]net.Conn)}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go p.relay(nc)
		}
	}()
	return p
}

func (p *cutProxy) relay(nc net.Conn) {
	defer nc.Close()
	down := netproto.NewConn(nc)
	hello, err := netproto.ReadHello(down)
	if err != nil {
		return
	}
	stream := strings.HasSuffix(hello.Role, "invalidations")
	p.mu.Lock()
	gate, sent, echoed := p.gate, p.sent, p.echoed
	p.mu.Unlock()
	if stream && gate != nil {
		<-gate
	}
	uc, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer uc.Close()
	up := netproto.NewConn(uc)
	if stream {
		p.mu.Lock()
		p.streams[nc] = uc
		p.mu.Unlock()
		defer func() {
			p.mu.Lock()
			delete(p.streams, nc)
			p.mu.Unlock()
		}()
	}
	if sent != nil {
		sent(netproto.Frame{Type: netproto.MsgHello, Body: hello})
	}
	if up.Send(netproto.Frame{Type: netproto.MsgHello, Body: hello}) != nil {
		return
	}
	if stream {
		p.opened <- struct{}{}
	}
	go func() {
		defer nc.Close()
		for {
			f, err := up.Recv()
			if err != nil {
				return
			}
			if stream && f.Type == netproto.MsgInterest {
				if echoed != nil {
					echoed()
				}
				p.mu.Lock()
				gate := p.gate
				p.mu.Unlock()
				if gate != nil {
					<-gate
				}
			}
			if down.Send(f) != nil {
				return
			}
		}
	}()
	for {
		f, err := down.Recv()
		if err != nil {
			return
		}
		if sent != nil {
			sent(f)
		}
		if up.Send(f) != nil {
			return
		}
		if stream && f.Type == netproto.MsgInterest && p.armed.CompareAndSwap(true, false) {
			return
		}
	}
}

// cut closes every invalidation stream, both sides.
func (p *cutProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for down, up := range p.streams {
		down.Close()
		up.Close()
	}
}

// awaitOpen waits for a stream's Hello to reach the repository.
func (p *cutProxy) awaitOpen(t *testing.T) {
	t.Helper()
	select {
	case <-p.opened:
	case <-time.After(10 * time.Second):
		t.Fatal("the shard never resubscribed")
	}
}

// TestQuickFilteredShardMatchesFullStream is the filter's property: over
// random sequences of subscribe (after some births the shard never
// heard of), births granted at once, late grants out of ID order,
// widening and narrowing reshards, updates on any object the repository
// knows, and stream cuts — between steps, and between the send of a
// reshard's gained registration and its echo — an unscoped shard, whose
// stream carries the owned set it registers, applies exactly the
// notices the oracle applies, in the same order. Every step ends with a
// notice on object 1, which the shard always owns; the stream is FIFO,
// so once that notice is logged, everything before it has been filtered
// or applied. No update is applied during a gap, which lasts until the
// resumed stream's re-registration of the owned set is echoed: a notice
// missed there is the cold resume's business, not the filter's.
func TestQuickFilteredShardMatchesFullStream(t *testing.T) {
	var filtered int64 // notices the filter spared the shard, over all trials
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scfg := catalog.DefaultConfig()
		scfg.NumObjects = 16
		scfg.TotalSize = 16 * cost.GB
		scfg.MinObjectSize = 100 * cost.MB
		scfg.MaxObjectSize = 4 * cost.GB
		survey, err := catalog.NewSurvey(scfg)
		if err != nil {
			t.Fatal(err)
		}
		base := survey.Objects()
		repo, err := server.New(server.Config{Survey: survey, Scale: netproto.DefaultScale()})
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.Start(); err != nil {
			t.Fatal(err)
		}
		defer repo.Close()
		proxy := startCutProxy(t, repo.Addr())
		defer proxy.ln.Close()
		defer proxy.cut()
		var born []model.Birth
		publish := func() model.Birth {
			b := model.Birth{
				Object: model.Object{ID: survey.NextID(), Size: cost.Bytes(1+rng.Intn(100)) * cost.MB},
				RA:     rng.Float64() * 360, Dec: rng.Float64()*180 - 90, Time: time.Second,
			}
			if _, err := repo.AddObjects([]model.Birth{b}); err != nil {
				t.Fatal(err)
			}
			// Grant the repository's copy (trixel filled in), as a router
			// does.
			if b.Object, err = survey.Object(b.Object.ID); err != nil {
				t.Fatal(err)
			}
			born = append(born, b)
			return b
		}
		// Subscribe once the repository has grown past the shard's
		// static universe.
		for range rng.Intn(3) {
			publish()
		}
		oracle := filterModel{owned: map[model.ObjectID]bool{1: true}, known: map[model.ObjectID]bool{}}
		for _, o := range base {
			oracle.known[o.ID] = true
			if rng.Intn(2) == 0 {
				oracle.owned[o.ID] = true
			}
		}
		log := &noticeLog{}
		mw, err := cache.New(cache.Config{
			RepoAddr:        proxy.ln.Addr().String(),
			Policy:          newLoggingVCover(log),
			Objects:         base,
			Shard:           true,
			Capacity:        survey.TotalSize(),
			ReshardCapacity: cache.ReplicatedCapacity,
			Scale:           netproto.DefaultScale(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer mw.Close()
		var initial []model.ObjectID
		for _, o := range base {
			if oracle.owned[o.ID] {
				initial = append(initial, o.ID)
			}
		}
		if _, _, err := mw.Reshard(0, initial, nil, nil); err != nil {
			t.Fatal(err)
		}
		proxy.awaitOpen(t)

		// resumed waits until the stream, resumed after a cut, carries the
		// owned set again. The shard's resume registers it; a wait begun
		// before the new connection is current ends unconfirmed, and is
		// repeated.
		resumed := func() {
			t.Helper()
			ids := make([]model.ObjectID, 0, len(oracle.owned))
			for id := range oracle.owned {
				ids = append(ids, id)
			}
			for deadline := time.Now().Add(10 * time.Second); !cache.AwaitRegistered(mw, ids); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the resumed stream never carried the owned set")
				}
			}
		}
		nextUpdate := model.UpdateID(0)
		update := func(obj model.ObjectID) {
			nextUpdate++
			repo.ApplyUpdate(model.Update{ID: nextUpdate, Object: obj, Cost: cost.KB, Time: time.Duration(nextUpdate) * time.Second})
			if oracle.owned[obj] {
				oracle.applied = append(oracle.applied, nextUpdate)
			}
		}
		grant := func(b model.Birth) {
			if _, err := mw.AddObjects(ctx, []model.Birth{b}); err != nil {
				t.Fatal(err)
			}
			if !oracle.known[b.Object.ID] {
				oracle.known[b.Object.ID] = true
				oracle.owned[b.Object.ID] = true
			}
		}
		epoch := 0
		for step := range 30 {
			if rng.Intn(6) == 0 {
				proxy.cut()
				proxy.awaitOpen(t)
				resumed()
			}
			universe := survey.NumObjects()
			switch k := rng.Intn(10); {
			case k < 5:
				update(model.ObjectID(1 + rng.Intn(universe)))
			case k < 7:
				b := publish()
				if rng.Intn(2) == 0 {
					grant(b)
				}
			case k < 8 && len(born) > 0:
				grant(born[rng.Intn(len(born))])
			default:
				epoch++
				owned := []model.ObjectID{1}
				var meta []model.Object
				for id := model.ObjectID(2); int(id) <= universe; id++ {
					if rng.Intn(2) == 0 {
						owned = append(owned, id)
					}
				}
				var gained []model.ObjectID
				for _, id := range owned {
					o, err := survey.Object(id)
					if err != nil {
						t.Fatal(err)
					}
					meta = append(meta, o)
					if !oracle.owned[id] {
						gained = append(gained, id)
					}
				}
				cutWiden := len(gained) > 0 && rng.Intn(2) == 0
				proxy.armed.Store(cutWiden)
				if _, _, err := mw.Reshard(epoch, owned, meta, nil); err != nil {
					t.Fatal(err)
				}
				if cutWiden {
					proxy.awaitOpen(t)
				}
				oracle.owned = make(map[model.ObjectID]bool, len(owned))
				for _, id := range owned {
					oracle.owned[id] = true
					oracle.known[id] = true
				}
				if cutWiden {
					resumed()
				}
				// The moment Reshard returns (with its stream whole), a
				// gained object is owned: its notice must already pass the
				// repository's filter.
				for _, id := range gained {
					update(id)
				}
			}
			update(1)
			sentinel := nextUpdate
			deadline := time.Now().Add(5 * time.Second)
			for {
				got := log.snapshot()
				if len(got) > 0 && got[len(got)-1] == sentinel {
					break
				}
				if time.Now().After(deadline) {
					t.Logf("seed %d step %d: notice %d never reached the policy; applied %v, oracle %v",
						seed, step, sentinel, got, oracle.applied)
					return false
				}
				time.Sleep(100 * time.Microsecond)
			}
			if got := log.snapshot(); !slices.Equal(got, oracle.applied) {
				t.Logf("seed %d step %d: applied %v, oracle %v", seed, step, got, oracle.applied)
				return false
			}
		}
		if st := mw.Stats(); st.DroppedInvalidations != 0 || repo.DroppedInvalidations() != 0 {
			t.Logf("seed %d: dropped %d at the shard, %d at the repository", seed, st.DroppedInvalidations, repo.DroppedInvalidations())
			return false
		}
		filtered += int64(nextUpdate) - int64(repo.Stats().Metric("delta_repo_notices_total"))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if filtered == 0 {
		t.Error("the filter spared the shard no notice in any trial")
	}
}

// scopedScript is a scripted policy that declares scoped notices, so
// its node registers interest as a VCover node does.
type scopedScript struct{ *sim.Scripted }

func (scopedScript) ScopedNotices() {}

// orderingRepository starts a 16-object repository and a cutProxy in
// front of it.
func orderingRepository(t *testing.T) (*catalog.Survey, *server.Repository, *cutProxy) {
	t.Helper()
	cfg := catalog.DefaultConfig()
	cfg.NumObjects = 16
	survey, err := catalog.NewSurvey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.PayloadScale{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	proxy := startCutProxy(t, repo.Addr())
	t.Cleanup(func() { proxy.ln.Close() })
	return survey, repo, proxy
}

// scopedNode starts a standalone cache over the proxy with policy,
// which is scoped but in one row of TestLoadNamesItsStream; logf (nil
// silences) gets its events.
func scopedNode(t *testing.T, survey *catalog.Survey, proxy *cutProxy, policy core.Policy, logf func(string, ...any)) (*cache.Middleware, *client.Client) {
	t.Helper()
	mw, err := cache.New(cache.Config{
		RepoAddr: proxy.ln.Addr().String(),
		Policy:   policy,
		Objects:  survey.Objects(),
		Capacity: survey.TotalSize(),
		Scale:    netproto.PayloadScale{},
		Logf:     logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mw.Close() })
	if err := mw.Start(); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(mw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return mw, cl
}

// TestLoadNamesItsStream: every load registers its objects itself, on
// a scoped node and an unscoped one, standalone or a cluster shard. Each
// load frame names the stream the node's Hello named; on the scoped
// node, no registration frame names the loaded object before its load.
func TestLoadNamesItsStream(t *testing.T) {
	rows := []struct {
		name   string
		scoped bool
		// start starts a node over proxy that loads something.
		start func(t *testing.T, survey *catalog.Survey, proxy *cutProxy)
	}{
		{"scoped standalone", true, func(t *testing.T, survey *catalog.Survey, proxy *cutProxy) {
			_, cl := scopedNode(t, survey, proxy, scopedScript{&sim.Scripted{Decisions: []core.Decision{
				{ShipQuery: true, Load: []model.ObjectID{3}},
			}}}, nil)
			if _, err := cl.Query(ctx, model.Query{ID: 1, Objects: []model.ObjectID{3}, Cost: cost.MB, Tolerance: model.AnyStaleness}); err != nil {
				t.Fatal(err)
			}
		}},
		{"unscoped standalone", false, func(t *testing.T, survey *catalog.Survey, proxy *cutProxy) {
			// Replica loads its universe before New returns.
			scopedNode(t, survey, proxy, core.NewReplica(), nil)
		}},
		{"unscoped shard", false, func(t *testing.T, survey *catalog.Survey, proxy *cutProxy) {
			mw, err := cache.New(cache.Config{
				RepoAddr: proxy.ln.Addr().String(), Policy: core.NewReplica(), Objects: survey.Objects(), Shard: true,
				Capacity: survey.TotalSize(), ReshardCapacity: cache.ReplicatedCapacity, Scale: netproto.PayloadScale{},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mw.Close() })
			// Replica loads what its first reshard installs.
			if _, _, err := mw.Reshard(0, []model.ObjectID{2, 3, 5}, nil, nil); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			survey, _, proxy := orderingRepository(t)
			var (
				mu         sync.Mutex
				stream     int64 // the stream's Hello.Stream
				registered bool  // a MsgInterest named object 3
				loads      []netproto.LoadObjectMsg
				early      bool // registered when the first load went
			)
			proxy.watch(func(f netproto.Frame) {
				mu.Lock()
				defer mu.Unlock()
				switch body := f.Body.(type) {
				case netproto.Hello:
					if strings.HasSuffix(body.Role, "invalidations") {
						stream = body.Stream
					}
				case netproto.InterestMsg:
					registered = registered || slices.Contains(body.Objects, 3)
				case netproto.LoadObjectMsg:
					if len(loads) == 0 {
						early = registered
					}
					loads = append(loads, body)
				}
			}, nil)
			row.start(t, survey, proxy)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case stream == 0:
				t.Fatal("the stream's Hello named no stream")
			case len(loads) == 0:
				t.Fatal("no load reached the repository")
			case row.scoped && early:
				t.Error("a registration of the object preceded its load")
			case row.scoped && !slices.Equal(loads[0].Objects, []model.ObjectID{3}):
				t.Errorf("the load names %v, want 3", loads[0].Objects)
			}
			for _, load := range loads {
				if load.Stream != stream {
					t.Errorf("a load of %v names stream %d, the node's stream is %d", load.Objects, load.Stream, stream)
				}
			}
		})
	}
}

// TestReloadWaitsOutDrop: an eviction's drop of an object and a later
// load of it travel on different connections, so the load must not
// reach the repository while the drop could still be installed after
// it. The drop is held on its way to the repository; the reload waits.
// Released, the drop is installed, then the load's registration, and an
// update on the object applied once the drop's echo is back reaches the
// node.
func TestReloadWaitsOutDrop(t *testing.T) {
	survey, repo, proxy := orderingRepository(t)
	var (
		holdDrop atomic.Bool
		dropSent = make(chan struct{}, 1)
		gate     = make(chan struct{})
		loads    atomic.Int32
		echoes   atomic.Int32
	)
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	proxy.watch(func(f netproto.Frame) {
		switch body := f.Body.(type) {
		case netproto.InterestMsg:
			if slices.Contains(body.Drop, 3) && holdDrop.CompareAndSwap(true, false) {
				dropSent <- struct{}{}
				<-gate
			}
		case netproto.LoadObjectMsg:
			loads.Add(1)
		}
	}, func() { echoes.Add(1) })
	mw, cl := scopedNode(t, survey, proxy, scopedScript{&sim.Scripted{Decisions: []core.Decision{
		{ShipQuery: true, Load: []model.ObjectID{3}},
		{ShipQuery: true, Evict: []model.ObjectID{3}},
		{ShipQuery: true, Load: []model.ObjectID{3}},
	}}}, nil)
	q := model.Query{Objects: []model.ObjectID{3}, Cost: cost.MB, Tolerance: model.AnyStaleness}
	ask := func(id model.QueryID) error {
		q.ID = id
		_, err := cl.Query(ctx, q)
		return err
	}
	if err := ask(1); err != nil {
		t.Fatal(err)
	}
	holdDrop.Store(true)
	if err := ask(2); err != nil {
		t.Fatal(err)
	}
	select {
	case <-dropSent:
	case <-time.After(5 * time.Second):
		t.Fatal("the eviction never sent the object's drop")
	}
	done := make(chan error, 1)
	go func() { done <- ask(3) }()
	time.Sleep(100 * time.Millisecond)
	if n := loads.Load(); n != 1 {
		t.Errorf("%d loads reached the repository while the drop was held, want only the first", n)
	}
	held := echoes.Load()
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the reload never answered after the drop was released")
	}
	for deadline := time.Now().Add(5 * time.Second); echoes.Load() == held; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the drop was never echoed")
		}
	}
	repo.ApplyUpdate(model.Update{ID: 1, Object: 3, Cost: cost.KB})
	heard := func() float64 { return mw.Stats().Metric("delta_invalidation_notices_total") }
	for deadline := time.Now().Add(2 * time.Second); heard() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the update on the reloaded object never reached the cache: the drop undid the load's registration")
		}
	}
}

// forgettingScript is a scoped script that can forget what it holds,
// so its node can resume after a gap.
type forgettingScript struct{ scopedScript }

func (forgettingScript) Forget(ids []model.ObjectID, _ cost.Bytes) (core.Decision, error) {
	return core.Decision{Evict: ids}, nil
}

// TestLoadOnLostStreamRegistersNothing: a load decided before the
// cache's stream is cut reaches the repository once the stream is gone
// and the cache is held away from it. The load is served and registers
// nothing, and an update applied while the cache is away reaches no
// one. After the resume, a tolerance-0 query on the object, which the
// script answers from the cache, is not answered from the cache: the
// resume evicted the object, whose update the cache never heard of.
func TestLoadOnLostStreamRegistersNothing(t *testing.T) {
	survey, repo, proxy := orderingRepository(t)
	var (
		holdLoad atomic.Bool
		loadSent = make(chan struct{}, 1)
		gate     = make(chan struct{})
		resumed  = make(chan struct{}, 1)
	)
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	holdLoad.Store(true)
	proxy.watch(func(f netproto.Frame) {
		if body, ok := f.Body.(netproto.LoadObjectMsg); ok && slices.Contains(body.Objects, 3) && holdLoad.CompareAndSwap(true, false) {
			loadSent <- struct{}{}
			<-gate
		}
	}, nil)
	_, cl := scopedNode(t, survey, proxy, forgettingScript{scopedScript{&sim.Scripted{Decisions: []core.Decision{
		{ShipQuery: true, Load: []model.ObjectID{3}},
		{}, // the resume's rejoin of what it forgot
		{}, // answer from the cache
	}}}}, func(format string, _ ...any) {
		if strings.Contains(format, "invalidation stream resumed") {
			select {
			case resumed <- struct{}{}:
			default:
			}
		}
	})
	q := model.Query{ID: 1, Objects: []model.ObjectID{3}, Cost: cost.MB, Tolerance: model.NoTolerance, Time: time.Second}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Query(ctx, q)
		done <- err
	}()
	select {
	case <-loadSent:
	case <-time.After(5 * time.Second):
		t.Fatal("the query's load never left the cache")
	}
	proxy.hold()
	proxy.cut()
	for deadline := time.Now().Add(5 * time.Second); repo.Subscribers() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the repository kept the cut stream")
		}
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("the load on the lost stream was not served: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the query never answered")
	}
	repo.ApplyUpdate(model.Update{ID: 1, Object: 3, Cost: cost.KB, Time: 2 * time.Second})
	proxy.release()
	select {
	case <-resumed:
	case <-time.After(10 * time.Second):
		t.Fatal("the cache never resumed")
	}
	q.ID, q.Time = 2, 3*time.Second
	res, err := cl.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source == "cache" {
		t.Error("after the resume, a tolerance-0 query on the object was answered from the cache without its update")
	}
}

// gatedReplica is Replica whose query decisions wait, while armed, until
// the test opens its gate; entered gets a token as each one starts.
type gatedReplica struct {
	*core.Replica
	armed   *atomic.Bool
	entered chan struct{}
	gate    chan struct{}
}

func (p gatedReplica) OnQuery(q *model.Query) (core.Decision, error) {
	if p.armed.Load() {
		p.entered <- struct{}{}
		<-p.gate
	}
	return p.Replica.OnQuery(q)
}

// orderingCluster is one shard, dialing the repository directly, behind
// a router whose repository traffic crosses the proxy and whose events
// go to logf (nil silences them).
func orderingCluster(t *testing.T, survey *catalog.Survey, repo *server.Repository, proxy *cutProxy, policy core.Policy, logf func(string, ...any)) (*cache.Middleware, *cluster.Router) {
	t.Helper()
	shard, err := cache.New(cache.Config{
		RepoAddr: repo.Addr(), Policy: policy, Objects: survey.Objects(), Shard: true,
		Capacity: survey.TotalSize(), ReshardCapacity: cache.ReplicatedCapacity, Scale: netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shard.Close() })
	if err := shard.Start(); err != nil {
		t.Fatal(err)
	}
	own, err := core.NewOwnership(survey.Objects(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(cluster.Config{Shards: []string{shard.Addr()}, Ownership: own, RepoAddr: proxy.ln.Addr().String(), Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	if err := router.Start(); err != nil {
		t.Fatal(err)
	}
	return shard, router
}

// awaitRouterHit repeats q until the router answers it from its result
// cache: once q's objects are confirmed, one query leads a cached flight
// and the next hits.
func awaitRouterHit(t *testing.T, cl *client.Client, router *cluster.Router, q model.Query) {
	t.Helper()
	hits := router.ResultCacheHits()
	for deadline := time.Now().Add(5 * time.Second); router.ResultCacheHits() == hits; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the router never answered the query from its result cache")
		}
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterWaitsForInterestEcho: a router query over objects it has
// never seen registers them and waits for the registration's echo
// before it may lead, join or hit a flight. With the echo held, neither
// it nor an identical query that arrives beside it reaches the shard or
// answers. Once released, the shard decides one of them, the other
// joins that flight or hits its cached result, and the next hits.
func TestRouterWaitsForInterestEcho(t *testing.T) {
	survey, repo, proxy := orderingRepository(t)
	var armed atomic.Bool
	armed.Store(true)
	open := make(chan struct{})
	close(open)
	policy := gatedReplica{Replica: core.NewReplica(), armed: &armed, entered: make(chan struct{}, 4), gate: open}
	_, router := orderingCluster(t, survey, repo, proxy, policy, nil)
	q := model.Query{Objects: []model.ObjectID{2, 5}, Cost: 2 * cost.MB, Tolerance: model.AnyStaleness}

	proxy.hold()
	done := make(chan error, 2)
	ask := func() {
		c, err := client.Dial(router.Addr())
		if err == nil {
			defer c.Close()
			_, err = c.Query(ctx, q)
		}
		done <- err
	}
	go ask()
	go ask()
	for deadline := time.Now().Add(5 * time.Second); router.Queries() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the queries never reached the router")
		}
	}
	// Time for either to reach the shard, were it allowed: a scatter
	// takes well under a millisecond here.
	time.Sleep(50 * time.Millisecond)
	if n := len(policy.entered); n != 0 {
		t.Fatalf("the shard decided %d queries before their objects' registration was echoed", n)
	}
	select {
	case err := <-done:
		t.Fatalf("a query answered (%v) before its objects' registration was echoed", err)
	default:
	}
	proxy.release()
	for range 2 {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a query never answered after the echo was released")
		}
	}
	if n := len(policy.entered); n != 1 {
		t.Errorf("the shard decided %d of the two queries, want 1: the other joins or hits", n)
	}
	if shared := router.ResultCacheHits() + router.Coalesced(); shared != 1 {
		t.Errorf("%d of the two queries were shared, want 1", shared)
	}
	cl, err := client.Dial(router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	hits := router.ResultCacheHits()
	if _, err := cl.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if router.ResultCacheHits() != hits+1 {
		t.Error("the query after the echo missed the result cache")
	}
}

// TestGapResetsInterest: once a router's registrations are confirmed,
// its stream withholds the notices of every other object. A gap clears
// the confirmations: the resumed stream starts with nothing registered,
// so an update on an object the router never registered still does not
// reach it, and once the router has resumed, with the new
// registration's echo held the same query waits. Released, it is
// answered by a scatter, not from the cache. (A query the router takes
// before its resume is answered uncached at once.)
func TestGapResetsInterest(t *testing.T) {
	survey, repo, proxy := orderingRepository(t)
	resumed := make(chan struct{}, 1)
	_, router := orderingCluster(t, survey, repo, proxy, core.NewReplica(), func(format string, _ ...any) {
		if strings.Contains(format, "invalidation stream resumed") {
			select {
			case resumed <- struct{}{}:
			default:
			}
		}
	})
	cl, err := client.Dial(router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	q := model.Query{Objects: []model.ObjectID{2, 5}, Cost: 2 * cost.MB, Tolerance: model.AnyStaleness}
	awaitRouterHit(t, cl, router, q)

	stats := func(name string) float64 { return repo.Stats().Metric(name) }
	update := model.UpdateID(0)
	apply := func(obj model.ObjectID) (notices, withheld float64) {
		n, w := stats("delta_repo_notices_total"), stats("delta_repo_notices_filtered_total")
		update++
		repo.ApplyUpdate(model.Update{ID: update, Object: obj, Cost: cost.KB})
		return stats("delta_repo_notices_total") - n, stats("delta_repo_notices_filtered_total") - w
	}
	// The shard (Replica) hears every notice it owns; the router only
	// those it registered.
	if notices, withheld := apply(9); notices != 1 || withheld != 1 {
		t.Fatalf("before the gap, an update on an unregistered object: %v notices, %v withheld; want 1 and 1", notices, withheld)
	}

	proxy.hold()
	proxy.cut()
	gaps := func() float64 {
		for _, s := range router.Reg.Values() {
			if s.Name == "delta_invalidation_gaps_total" {
				return s.Value
			}
		}
		return 0
	}
	for deadline := time.Now().Add(5 * time.Second); gaps() == 0 || repo.Subscribers() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the router's stream was never cut")
		}
	}
	proxy.release()
	for deadline := time.Now().Add(5 * time.Second); repo.Subscribers() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the router never resubscribed")
		}
	}
	if notices, withheld := apply(9); notices != 1 || withheld != 1 {
		t.Errorf("after the resume, an update on an unregistered object: %v notices, %v withheld; want 1 and 1", notices, withheld)
	}
	select {
	case <-resumed:
	case <-time.After(10 * time.Second):
		t.Fatal("the router never resumed")
	}

	proxy.hold()
	hits := router.ResultCacheHits()
	done := make(chan error, 1)
	go func() {
		_, err := cl.Query(ctx, q)
		done <- err
	}()
	select {
	case err := <-done:
		t.Errorf("after the gap, the query answered (%v) before its objects' new registration was echoed", err)
	case <-time.After(100 * time.Millisecond):
	}
	proxy.release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the query never answered after the echo was released")
	}
	if got := router.ResultCacheHits(); got != hits {
		t.Errorf("after the gap, the query hit the result cache %d times", got-hits)
	}
}

// TestWarmArrivalsWaitForInterestEcho: a scoped shard registers a
// reshard's warm arrivals and adopts them only once the registration's
// echo is back. The reshard gains nothing, so the warm arrival is all
// it waits for: with the interest echo held it does not return, and
// once released the arrival is resident.
func TestWarmArrivalsWaitForInterestEcho(t *testing.T) {
	survey, _, proxy := orderingRepository(t)
	mw, err := cache.New(cache.Config{
		RepoAddr: proxy.ln.Addr().String(), Policy: core.NewVCover(core.DefaultVCoverConfig()),
		Objects: survey.Objects(), Shard: true, Capacity: survey.TotalSize(),
		ReshardCapacity: cache.ReplicatedCapacity, Scale: netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	owned := []model.ObjectID{1, 2, 3, 4}
	if _, _, err := mw.Reshard(0, owned, nil, nil); err != nil {
		t.Fatal(err)
	}
	proxy.hold()
	done := make(chan error, 1)
	go func() {
		_, _, err := mw.Reshard(1, owned, nil, []model.ObjectID{3})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("the reshard returned (%v) before its warm arrival's registration was echoed", err)
	case <-time.After(100 * time.Millisecond):
	}
	proxy.release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the reshard never returned after the echo was released")
	}
	if got := mw.Stats().Cached; !slices.Equal(got, []model.ObjectID{3}) {
		t.Errorf("resident after the reshard: %v, want the warm arrival 3", got)
	}
}

// TestScopedReshardSurvivesCut: a scoped shard's reshard holds its
// stream's lock, under which it waits for its warm arrivals'
// registration, while the stream's resume needs that lock to swap in a
// new connection. A wait begun after a gap has reset the registrations
// must therefore end with the dead connection. The stream is cut and
// kept away from the repository until the reset is done; the reshard
// that follows gains an object and adopts a warm arrival. It returns,
// and once the repository is reachable again the stream resumes.
func TestScopedReshardSurvivesCut(t *testing.T) {
	survey, _, proxy := orderingRepository(t)
	mw, err := cache.New(cache.Config{
		RepoAddr: proxy.ln.Addr().String(), Policy: core.NewVCover(core.DefaultVCoverConfig()),
		Objects: survey.Objects(), Shard: true, Capacity: survey.TotalSize(),
		ReshardCapacity: cache.ReplicatedCapacity, Scale: netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	if _, _, err := mw.Reshard(0, []model.ObjectID{1, 2, 3, 4}, nil, nil); err != nil {
		t.Fatal(err)
	}
	proxy.awaitOpen(t)
	gen := cache.InterestGen(mw)
	proxy.hold()
	proxy.cut()
	for deadline := time.Now().Add(5 * time.Second); cache.InterestGen(mw) == gen; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the cut never reset the registrations")
		}
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := mw.Reshard(1, []model.ObjectID{1, 2, 3, 4, 5}, nil, []model.ObjectID{3})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		proxy.release()
		t.Fatal("the reshard never returned: it waited for a registration on the dead stream")
	}
	proxy.release()
	proxy.awaitOpen(t)
}

// TestReshardWaitsForItsDrop: a reshard answers only once the drop of
// what it lost is echoed, as it waits for its gains'. With the echo held
// at the proxy, an unscoped shard's narrowing reshard must not return;
// released, it returns, and an update on a lost object is withheld from
// the shard.
func TestReshardWaitsForItsDrop(t *testing.T) {
	survey, repo, proxy := orderingRepository(t)
	mw, err := cache.New(cache.Config{
		RepoAddr: proxy.ln.Addr().String(), Policy: core.NewBenefit(core.BenefitConfig{Window: 40}),
		Objects: survey.Objects(), Shard: true, Capacity: survey.TotalSize(),
		ReshardCapacity: cache.ReplicatedCapacity, Scale: netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	if _, _, err := mw.Reshard(0, []model.ObjectID{1, 2, 3, 4}, nil, nil); err != nil {
		t.Fatal(err)
	}
	proxy.hold()
	done := make(chan error, 1)
	go func() {
		_, _, err := mw.Reshard(1, []model.ObjectID{1, 2}, nil, nil)
		done <- err
	}()
	select {
	case err := <-done:
		proxy.release()
		t.Fatalf("the reshard returned (%v) while the echo of its drop was held", err)
	case <-time.After(200 * time.Millisecond):
	}
	proxy.release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the reshard never returned after the echo was released")
	}
	withheld := repo.Stats().Metric("delta_repo_notices_filtered_total")
	repo.ApplyUpdate(model.Update{ID: 1, Object: 3, Cost: cost.KB})
	if got := repo.Stats().Metric("delta_repo_notices_filtered_total"); got != withheld+1 {
		t.Errorf("an update on a lost object after the reshard: %v notices withheld, want %v", got, withheld+1)
	}
}
