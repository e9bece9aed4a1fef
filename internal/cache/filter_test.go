package cache_test

import (
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
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
// notices logged.
type loggingVCover struct {
	*core.VCover
	log *noticeLog
}

func (p loggingVCover) OnUpdate(u *model.Update) (core.Decision, error) {
	p.log.mu.Lock()
	p.log.ids = append(p.log.ids, u.ID)
	p.log.mu.Unlock()
	return p.VCover.OnUpdate(u)
}

// filterModel is the oracle: today's shard behind a full stream, which
// applies a notice iff the shard owns the object when it arrives. known
// is the shard's universe, which decides whether a grant adds anything.
type filterModel struct {
	owned, known map[model.ObjectID]bool
	applied      []model.UpdateID
}

// cutProxy relays a shard's repository connections frame by frame so a
// test can cut its invalidation streams: all of them at once (cut), or
// the next one right after it forwards the shard's next owned-set frame,
// before the repository's echo can come back (armed). opened gets a
// token each time a stream forwards its first owned-set frame — a
// shard's resume sends one once it hears again. A test may also watch
// what the shard sends the repository and act the moment an owned-set
// echo reaches the proxy, before the shard sees it (watch).
type cutProxy struct {
	ln      net.Listener
	target  string
	armed   atomic.Bool
	opened  chan struct{}
	mu      sync.Mutex
	sent    func(netproto.Frame)
	echoed  func()
	streams map[net.Conn]net.Conn // shard side → repository side
}

// watch sets the hooks connections dialed from now on run: sent sees
// every frame the shard sends the repository, and echoed runs on each
// owned-set echo before the proxy forwards it.
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
	uc, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer uc.Close()
	up := netproto.NewConn(uc)
	stream := hello.Role == "invalidations"
	p.mu.Lock()
	sent, echoed := p.sent, p.echoed
	p.mu.Unlock()
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
	if up.Send(netproto.Frame{Type: netproto.MsgHello, Body: hello}) != nil {
		return
	}
	go func() {
		defer nc.Close()
		for {
			f, err := up.Recv()
			if err != nil {
				return
			}
			if stream && f.Type == netproto.MsgReshard && echoed != nil {
				echoed()
			}
			if down.Send(f) != nil {
				return
			}
		}
	}()
	for first := true; ; first = false {
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
		if stream && f.Type == netproto.MsgReshard {
			if first {
				p.opened <- struct{}{}
			}
			if p.armed.CompareAndSwap(true, false) {
				return
			}
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

// awaitOpen waits for a stream to send its first owned set.
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
// knows, and stream cuts — between steps, and between a widen's send and
// its echo — a shard behind the ownership-filtered stream applies
// exactly the notices the oracle applies, in the same order. Every step
// ends with a notice on object 1, which the shard always owns; the
// stream is FIFO, so once that notice is logged, everything before it
// has been filtered or applied. No update is applied during a gap: a
// notice missed there is the cold resume's business, not the filter's.
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
			Policy:          loggingVCover{VCover: core.NewVCover(core.DefaultVCoverConfig()), log: log},
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
				// The moment Reshard returns, a gained object is owned:
				// its notice must already pass the repository's filter.
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
