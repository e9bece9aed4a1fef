package cache_test

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/obs"
	"github.com/deltacache/delta/internal/server"
)

// currencyOracle is the ground truth of TestQuickReshardKeepsCurrency,
// kept from outside the shard: every update the test applied at the
// repository, in order, and what the shard fetched since — the updates
// it shipped, and for each object how many updates had been applied
// when its latest load left the node (a load carries every update
// applied before it).
type currencyOracle struct {
	mu       sync.Mutex
	applied  []model.Update
	shipped  map[model.UpdateID]bool
	loadedAt map[model.ObjectID]int
}

func newCurrencyOracle() *currencyOracle {
	return &currencyOracle{shipped: map[model.UpdateID]bool{}, loadedAt: map[model.ObjectID]int{}}
}

// update applies the next update, on obj, at the repository, and
// returns its ID.
func (o *currencyOracle) update(repo *server.Repository, obj model.ObjectID) model.UpdateID {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := len(o.applied) + 1
	u := model.Update{ID: model.UpdateID(n), Object: obj, Cost: cost.KB, Time: time.Duration(n) * time.Second}
	repo.ApplyUpdate(u)
	o.applied = append(o.applied, u)
	return u.ID
}

// sent records a frame the shard sent the repository.
func (o *currencyOracle) sent(f netproto.Frame) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch body := f.Body.(type) {
	case netproto.ShipUpdatesMsg:
		for _, id := range body.IDs {
			o.shipped[id] = true
		}
	case netproto.LoadObjectMsg:
		for _, id := range body.Objects {
			o.loadedAt[id] = len(o.applied)
		}
	}
}

// now is a query time no earlier than any applied update.
func (o *currencyOracle) now() time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return time.Duration(len(o.applied)) * time.Second
}

// missed lists the updates an answer to q from the cache cannot have
// reflected: on B(q), required by t(q), neither shipped nor older than
// the object's latest load.
func (o *currencyOracle) missed(q *model.Query) []model.UpdateID {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []model.UpdateID
	for i, u := range o.applied {
		if slices.Contains(q.Objects, u.Object) && model.UpdateRequired(&u, q) && !o.shipped[u.ID] && o.loadedAt[u.Object] <= i {
			out = append(out, u.ID)
		}
	}
	return out
}

// reshardSurvey is the 16-object survey the reshard properties run on.
func reshardSurvey(t *testing.T) *catalog.Survey {
	t.Helper()
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 16
	scfg.TotalSize = 16 * cost.GB
	scfg.MinObjectSize = 100 * cost.MB
	scfg.MaxObjectSize = 4 * cost.GB
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return survey
}

// randomOwned draws an owned set: keep, plus each other object of
// 1..n with probability one half.
func randomOwned(rng *rand.Rand, n int, keep []model.ObjectID) []model.ObjectID {
	owned := slices.Clone(keep)
	for id := model.ObjectID(1); int(id) <= n; id++ {
		if !slices.Contains(keep, id) && rng.Intn(2) == 0 {
			owned = append(owned, id)
		}
	}
	return owned
}

// TestQuickReshardKeepsCurrency is the currency property of the reshard
// boundaries: over random sequences of updates on any object,
// tolerance-0 queries on owned objects, and reshards that carry, gain
// and lose objects and resize the shard — at random with an update
// applied the moment the widen's echo reaches the shard, so its notice
// lands between the echo and the reshard's second half — every answer
// the shard serves from its cache reflects every update on B(q) at or
// before q.Time: shipped, or older than the object's latest load. The
// updates are the test's own list of repository writes, not the notices
// the shard heard, so a notice it missed or dropped counts too. Each
// step ends with a notice on object 1, which the shard always owns,
// registers once at the start and never queries (a load and an eviction
// of it would drop that registration), and waits for it to reach the
// policy: the stream is FIFO, so every earlier notice has been filtered
// or applied by then. The shard runs VCover scoped, as a product shard
// does: the repository withholds the notices of objects it does not
// hold.
func TestQuickReshardKeepsCurrency(t *testing.T) {
	var (
		atCache  int     // cache answers checked, over all trials
		withheld float64 // notices the interest set withheld, over all trials
	)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		survey := reshardSurvey(t)
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
		oracle := newCurrencyOracle()
		var (
			inject    atomic.Bool
			injectObj atomic.Int64
		)
		proxy.watch(oracle.sent, func() {
			if inject.CompareAndSwap(true, false) {
				oracle.update(repo, model.ObjectID(injectObj.Load()))
			}
		})
		log := &noticeLog{}
		mw, err := cache.New(cache.Config{
			RepoAddr:        proxy.ln.Addr().String(),
			Policy:          scopedLoggingVCover{newLoggingVCover(log)},
			Objects:         base,
			Shard:           true,
			Capacity:        survey.TotalSize(),
			ReshardCapacity: cache.FractionalCapacity(0.5),
			Scale:           netproto.DefaultScale(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer mw.Close()
		if err := mw.Start(); err != nil {
			t.Fatal(err)
		}
		cl, err := client.Dial(mw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		keep := []model.ObjectID{1}
		owned := randomOwned(rng, len(base), keep)
		if _, _, err := mw.Reshard(0, owned, nil, nil); err != nil {
			t.Fatal(err)
		}
		proxy.awaitOpen(t)
		// The shard is scoped: the sentinel's object is registered once.
		if !cache.AwaitRegistered(mw, keep) {
			t.Fatal("object 1's registration was never echoed")
		}
		epoch := 0
		nextQuery := model.QueryID(0)
		for step := range 30 {
			switch k := rng.Intn(10); {
			case k < 4:
				oracle.update(repo, model.ObjectID(1+rng.Intn(len(base))))
			case k < 8 && len(owned) > len(keep):
				nextQuery++
				q := model.Query{ID: nextQuery, Tolerance: model.NoTolerance, Time: oracle.now()}
				queried := owned[len(keep):] // randomOwned puts keep first
				for range 1 + rng.Intn(2) {
					q.Objects = append(q.Objects, queried[rng.Intn(len(queried))])
				}
				slices.Sort(q.Objects)
				q.Objects = slices.Compact(q.Objects)
				// A cost that covers every load: VCover loads the misses.
				for _, id := range q.Objects {
					o, _ := survey.Object(id)
					q.Cost += o.Size
				}
				res, err := cl.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if res.Source == "cache" {
					atCache++
					if missed := oracle.missed(&q); len(missed) > 0 {
						t.Logf("seed %d step %d: query %d on %v answered from the cache without updates %v",
							seed, step, q.ID, q.Objects, missed)
						return false
					}
				}
			default:
				epoch++
				next := randomOwned(rng, len(base), keep)
				gains := slices.ContainsFunc(next, func(id model.ObjectID) bool { return !slices.Contains(owned, id) })
				if gains && rng.Intn(2) == 0 {
					injectObj.Store(int64(next[rng.Intn(len(next))]))
					inject.Store(true)
				}
				if _, _, err := mw.Reshard(epoch, next, nil, nil); err != nil {
					t.Fatal(err)
				}
				inject.Store(false)
				owned = next
			}
			sentinel := oracle.update(repo, 1)
			deadline := time.Now().Add(5 * time.Second)
			for got := log.snapshot(); len(got) == 0 || got[len(got)-1] != sentinel; got = log.snapshot() {
				if time.Now().After(deadline) {
					t.Logf("seed %d step %d: notice %d never reached the policy", seed, step, sentinel)
					return false
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		withheld += repo.Stats().Metric("delta_repo_notices_filtered_total")
		if st := mw.Stats(); st.DroppedInvalidations != 0 || repo.DroppedInvalidations() != 0 {
			t.Logf("seed %d: dropped %d at the shard, %d at the repository", seed, st.DroppedInvalidations, repo.DroppedInvalidations())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	if atCache == 0 {
		t.Error("no query was answered from the cache in any trial")
	}
	if withheld == 0 {
		t.Error("the repository withheld no notice in any trial: the shard never ran scoped")
	}
}

// violations reads a node's delta_decision_violations_total.
func violations(t *testing.T, mw *cache.Middleware) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := mw.Reg.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	families, err := obs.ParseExposition(&b)
	if err != nil {
		t.Fatal(err)
	}
	return families["delta_decision_violations_total"].Samples["delta_decision_violations_total"]
}

// TestQuickReshardMatchesTwin runs random reshard sequences on one shard
// beside its twin, a standalone node over the same universe that never
// reshards, under the same updates and queries. The queries touch only
// objects the shard carries through every reshard; reshards gain and
// lose the others, resize the shard and offer random warm lists. For
// every policy no decision violation counts on either node; NoCache and
// Replica, whose decisions do not depend on the capacity, must answer
// every query as the twin does.
func TestQuickReshardMatchesTwin(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy func() core.Policy
		same   bool
	}{
		{"NoCache", func() core.Policy { return core.NewNoCache() }, true},
		{"Replica", func() core.Policy { return core.NewReplica() }, true},
		{"VCover", func() core.Policy { return core.NewVCover(core.DefaultVCoverConfig()) }, false},
		{"Benefit", func() core.Policy {
			return core.NewBenefit(core.BenefitConfig{Window: 4})
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				survey := reshardSurvey(t)
				base := survey.Objects()
				repo, err := server.New(server.Config{Survey: survey, Scale: netproto.DefaultScale()})
				if err != nil {
					t.Fatal(err)
				}
				if err := repo.Start(); err != nil {
					t.Fatal(err)
				}
				defer repo.Close()
				start := func(shard bool) (*cache.Middleware, *client.Client) {
					mw, err := cache.New(cache.Config{
						RepoAddr:        repo.Addr(),
						Policy:          tc.policy(),
						Objects:         base,
						Shard:           shard,
						Capacity:        survey.TotalSize() / 2,
						ReshardCapacity: cache.FractionalCapacity(0.5),
						Scale:           netproto.DefaultScale(),
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := mw.Start(); err != nil {
						t.Fatal(err)
					}
					cl, err := client.Dial(mw.Addr())
					if err != nil {
						t.Fatal(err)
					}
					return mw, cl
				}
				shard, shardCl := start(true)
				defer shard.Close()
				defer shardCl.Close()
				twin, twinCl := start(false)
				defer twin.Close()
				defer twinCl.Close()

				carried := []model.ObjectID{1, 2, 3, 4}
				if _, _, err := shard.Reshard(0, randomOwned(rng, len(base), carried), nil, nil); err != nil {
					t.Fatal(err)
				}
				now := time.Duration(0)
				for step := range 24 {
					now += time.Second
					switch k := rng.Intn(10); {
					case k < 3:
						repo.ApplyUpdate(model.Update{
							ID: model.UpdateID(step + 1), Object: model.ObjectID(1 + rng.Intn(len(base))),
							Cost: cost.MB, Time: now,
						})
					case k < 8:
						q := model.Query{ID: model.QueryID(step + 1), Cost: cost.GB, Time: now}
						q.Objects = []model.ObjectID{carried[rng.Intn(len(carried))]}
						if rng.Intn(2) == 0 {
							q.Tolerance = model.AnyStaleness
						}
						got, err := shardCl.Query(ctx, q)
						if err != nil {
							t.Fatal(err)
						}
						want, err := twinCl.Query(ctx, q)
						if err != nil {
							t.Fatal(err)
						}
						if tc.same && got.Source != want.Source {
							t.Logf("seed %d step %d: query on %v answered from %s, the twin from %s",
								seed, step, q.Objects, got.Source, want.Source)
							return false
						}
					default:
						var warm []model.ObjectID
						for range rng.Intn(4) {
							warm = append(warm, model.ObjectID(1+rng.Intn(len(base))))
						}
						if _, _, err := shard.Reshard(step+1, randomOwned(rng, len(base), carried), nil, warm); err != nil {
							t.Fatal(err)
						}
					}
				}
				if v, w := violations(t, shard), violations(t, twin); v != 0 || w != 0 {
					t.Logf("seed %d: %v decision violations at the shard, %v at the twin", seed, v, w)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
