package cluster

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/node"
)

// ask is one fragment as a scripted shard saw it.
type ask struct {
	objects []model.ObjectID
	cost    cost.Bytes
}

// script is how one scripted shard treats the fragments it is sent.
type script struct {
	// stall delays the reaction; the shard is alive but slow.
	stall time.Duration
	// dies makes the link fail in transport instead of answering (and
	// stay dead: later sends fail without reaching the shard).
	dies bool
	// rejects makes the live shard refuse every fragment.
	rejects bool
	// disowned lists objects the shard rejects whole fragments over, the
	// way a shard narrowed by a resize does.
	disowned []model.ObjectID
}

// scriptedCluster is a router in front of scripted shards: real nodes
// and real sessions, canned MsgShardQuery handlers that record what
// each link was asked. The router's result cache is off, so every query
// reaches the shards.
type scriptedCluster struct {
	mu      sync.Mutex
	router  *Router
	scripts []script
	asked   [][]ask
}

func newScriptedCluster(t *testing.T, repoAddr string, own *core.Ownership, scripts []script, mutate func(*Config)) *scriptedCluster {
	t.Helper()
	sc := &scriptedCluster{scripts: scripts, asked: make([][]ask, len(scripts))}
	cfg := Config{Ownership: own, RepoAddr: repoAddr, ResultCacheSize: -1}
	for i := range scripts {
		n := node.New("scripted shard", "", "", t.Logf, func(f netproto.Frame) netproto.Frame {
			return sc.react(i, f)
		})
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		cfg.Shards = append(cfg.Shards, n.Addr())
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	sc.mu.Lock()
	sc.router = r
	sc.mu.Unlock()
	return sc
}

// react records the fragment shard i was sent and plays its script.
func (sc *scriptedCluster) react(i int, f netproto.Frame) netproto.Frame {
	if rs, ok := f.Body.(netproto.ReshardMsg); ok {
		return netproto.Frame{Type: netproto.MsgReshard, Body: netproto.ReshardMsg{Epoch: rs.Epoch}}
	}
	sq, ok := f.Body.(netproto.ShardQueryMsg)
	if !ok {
		return netproto.ErrorFrame("scripted shard got %s", f.Type)
	}
	sc.mu.Lock()
	sc.asked[i] = append(sc.asked[i], ask{objects: sq.Query.Objects, cost: sq.Query.Cost})
	s, r := sc.scripts[i], sc.router
	sc.mu.Unlock()
	time.Sleep(s.stall)
	if s.dies {
		// Fail the round trip in transport, deterministically: closing the
		// router's side of the session fails its pending requests before
		// this handler's reply could be read.
		r.routing.Load().links[i].sess.Close()
	}
	for _, id := range sq.Query.Objects {
		if s.rejects || slices.Contains(s.disowned, id) {
			return netproto.ErrorFrame("query %d touches object %d not owned by this shard", sq.Query.ID, id)
		}
	}
	return netproto.Frame{Type: netproto.MsgQueryResult, Body: netproto.QueryResultMsg{
		QueryID: sq.Query.ID, Logical: sq.Query.Cost, Source: "cache",
	}}
}

// TestAttemptLoop drives the router's one fragment attempt loop through
// every reason it takes a next attempt — failover down the ranked
// replicas, the alternate owner and the narrowed same-link retry of a
// resize, the hedge race — and pins exactly what each link was asked:
// which objects, at what cost share, how many times. No link is ever
// sent the same objects twice, and the walk only stops when an attempt
// answers or no candidate is left.
func TestAttemptLoop(t *testing.T) {
	survey, repo := installSurvey(t, 1)
	base := survey.Objects()
	const shards = 4
	// primaries returns the shard with the most primary objects under
	// own, and those objects: the one fragment every row sends.
	primaries := func(own *core.Ownership) (int, []model.ObjectID) {
		best, objs := 0, []model.ObjectID(nil)
		for s := 0; s < shards; s++ {
			var mine []model.ObjectID
			for _, id := range own.ShardObjects(s) {
				if p, _ := own.Owner(id); p == s {
					mine = append(mine, id)
				}
			}
			if len(mine) > len(objs) {
				best, objs = s, mine
			}
		}
		if len(objs) < 3 {
			t.Fatalf("no shard has 3 primaries (best: shard %d with %v)", best, objs)
		}
		return best, objs
	}
	const (
		// The delay is long enough that a dying link's failure always beats
		// the hedge timer of the attempt that found it, short against stall.
		hedgeDelay = 25 * time.Millisecond
		stall      = 600 * time.Millisecond
	)
	type want struct {
		failed                              bool // the query errors: nothing answered
		failover, rerouted, hedged, degrade int64
		faster                              time.Duration // 0: unchecked
	}
	rows := []struct {
		name     string
		replicas int
		hedge    bool
		// scripts and alt are keyed by rank: 0 is the fragment's primary
		// p, r is shard (p+r) mod 4 — its rank-r holder when r < replicas.
		scripts map[int]script
		alt     int // rank whose link is objs[0]'s resize alternate; 0 for none
		// disown narrows the primary: it rejects fragments holding objs[0].
		disown bool
		// asked lists, per rank, whether the link sees the whole fragment
		// ("all"), the mover objs[0] ("mover"), the rest ("stayers"), in
		// the order it sees them.
		asked map[int][]string
		want  want
	}{
		{name: "primary answers", replicas: 3,
			asked: map[int][]string{0: {"all"}}},
		{name: "primary dead, rank 1 answers", replicas: 3,
			scripts: map[int]script{0: {dies: true}},
			asked:   map[int][]string{0: {"all"}, 1: {"all"}},
			want:    want{failover: 1}},
		{name: "primary and rank 1 dead, rank 2 answers", replicas: 3,
			scripts: map[int]script{0: {dies: true}, 1: {dies: true}},
			asked:   map[int][]string{0: {"all"}, 1: {"all"}, 2: {"all"}},
			want:    want{failover: 2}},
		{name: "rejected: mover to its alternate, stayers retried narrower on the same link", replicas: 1,
			alt: 2, disown: true,
			asked: map[int][]string{0: {"all", "stayers"}, 2: {"mover"}},
			want:  want{rerouted: 1}},
		{name: "an attempt's groups go out concurrently", replicas: 1,
			alt: 2, disown: true,
			// Three stalled round trips: the rejection, then mover and
			// stayers side by side — two stalls end to end, not three.
			scripts: map[int]script{0: {stall: stall / 2}, 2: {stall: stall / 2}},
			asked:   map[int][]string{0: {"all", "stayers"}, 2: {"mover"}},
			want:    want{rerouted: 1, faster: stall * 5 / 4}},
		{name: "rejected for every object: no narrower retry, lost", replicas: 1,
			scripts: map[int]script{0: {rejects: true}},
			asked:   map[int][]string{0: {"all"}},
			want:    want{failed: true}},
		{name: "straggler: the hedge wins", replicas: 3, hedge: true,
			scripts: map[int]script{0: {stall: stall}},
			asked:   map[int][]string{0: {"all"}, 1: {"all"}},
			want:    want{hedged: 1, faster: stall / 2}},
		{name: "straggler, hedge fails: the primary's late answer still wins", replicas: 2, hedge: true,
			scripts: map[int]script{0: {stall: stall / 3}, 1: {dies: true}},
			asked:   map[int][]string{0: {"all"}, 1: {"all"}},
			want:    want{hedged: 1}},
		{name: "straggler, hedged link dead: the hedge walks on to rank 2 and wins", replicas: 3, hedge: true,
			scripts: map[int]script{0: {stall: stall}, 1: {dies: true}},
			asked:   map[int][]string{0: {"all"}, 1: {"all"}, 2: {"all"}},
			want:    want{hedged: 1, failover: 1, faster: stall / 2}},
		{name: "every holder dead: lost, each link asked exactly once", replicas: 3,
			scripts: map[int]script{0: {dies: true}, 1: {dies: true}, 2: {dies: true}},
			asked:   map[int][]string{0: {"all"}, 1: {"all"}, 2: {"all"}},
			want:    want{failed: true}},
		{name: "straggler dies after the hedge was refused: lost, each link asked exactly once", replicas: 2, hedge: true,
			scripts: map[int]script{0: {stall: stall / 3, dies: true}, 1: {rejects: true}},
			asked:   map[int][]string{0: {"all"}, 1: {"all"}},
			want:    want{failed: true, hedged: 1}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			own, err := core.NewOwnership(base, shards, row.replicas)
			if err != nil {
				t.Fatal(err)
			}
			p, objs := primaries(own)
			at := func(rank int) int { return (p + rank) % shards }
			scripts := make([]script, shards)
			for rank, s := range row.scripts {
				scripts[at(rank)] = s
			}
			if row.disown {
				scripts[p].disowned = objs[:1]
			}
			sc := newScriptedCluster(t, repo.Addr(), own, scripts, func(cfg *Config) {
				cfg.Hedge, cfg.HedgeDelay = row.hedge, hedgeDelay
			})
			r := sc.router
			if row.alt != 0 {
				rt := r.routing.Load()
				r.routing.Store(&routing{own: rt.own, links: rt.links,
					alt: map[model.ObjectID]int{objs[0]: at(row.alt)}})
			}

			// ν leaves a remainder under any split of the fragment.
			nu := cost.Bytes(1000*len(objs) + 1)
			q := model.Query{ID: 7, Objects: objs, Cost: nu, Tolerance: model.AnyStaleness, Time: time.Second}
			start := time.Now()
			reply := r.routeQuery(context.Background(), &q, 0, "")
			elapsed := time.Since(start)

			res, ok := reply.Body.(netproto.QueryResultMsg)
			switch {
			case row.want.failed && ok:
				t.Errorf("query answered %+v, want an error", res)
			case row.want.failed:
				if msg := reply.Body.(netproto.ErrorMsg).Message; !strings.Contains(msg, "owning shards failed") {
					t.Errorf("query failed with %q, want the all-shards-failed error", msg)
				}
			case !ok:
				t.Fatalf("query failed: %v", reply.Body)
			case res.Degraded || res.Logical != nu:
				t.Errorf("result degraded=%v logical=%d, want undegraded with ν(q)=%d", res.Degraded, res.Logical, nu)
			}
			if row.want.faster > 0 && elapsed >= row.want.faster {
				t.Errorf("query took %v, want under %v (the straggler stalls %v)", elapsed, row.want.faster, stall)
			}
			got := want{failed: row.want.failed, faster: row.want.faster,
				failover: r.Failover(), rerouted: r.Rerouted(), hedged: r.Hedged(), degrade: r.Degraded()}
			if got != row.want {
				t.Errorf("counters %+v, want %+v", got, row.want)
			}

			// The mover/stayers split, when a row has one: two groups in
			// (index, addr) order, the remainder charged to the first.
			moverCost, stayersCost := nu/cost.Bytes(len(objs)), nu*cost.Bytes(len(objs)-1)/cost.Bytes(len(objs))
			if rest := nu - moverCost - stayersCost; at(row.alt) < p {
				moverCost += rest
			} else {
				stayersCost += rest
			}
			shapes := map[string]ask{
				"all":     {objects: objs, cost: nu},
				"mover":   {objects: objs[:1], cost: moverCost},
				"stayers": {objects: objs[1:], cost: stayersCost},
			}
			// A cancelled loser may still be stalling; what it was asked
			// is already recorded, which is all that is compared.
			sc.mu.Lock()
			defer sc.mu.Unlock()
			for rank := 0; rank < shards; rank++ {
				var wantAsked []ask
				for _, shape := range row.asked[rank] {
					wantAsked = append(wantAsked, shapes[shape])
				}
				if !slices.EqualFunc(sc.asked[at(rank)], wantAsked, func(a, b ask) bool {
					return slices.Equal(a.objects, b.objects) && a.cost == b.cost
				}) {
					t.Errorf("rank-%d link (shard %d) was asked %v, want %v", rank, at(rank), sc.asked[at(rank)], wantAsked)
				}
			}
		})
	}
}
