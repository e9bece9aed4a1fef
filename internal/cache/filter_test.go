package cache_test

import (
	"math/rand"
	"slices"
	"sync"
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

// TestQuickFilteredShardMatchesFullStream is the filter's property: over
// random sequences of subscribe (after some births the shard never
// heard of), births granted at once, late grants out of ID order,
// widening and narrowing reshards, and updates on any object the
// repository knows, a shard behind the ownership-filtered stream applies
// exactly the notices the oracle applies, in the same order. Every step
// ends with a notice on object 1, which the shard always owns; the
// stream is FIFO, so once that notice is logged, everything before it
// has been filtered or applied.
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
		var born []model.Birth
		publish := func() model.Birth {
			b := model.Birth{
				Object: model.Object{ID: survey.NextID(), Size: cost.Bytes(1+rng.Intn(100)) * cost.MB},
				RA:     rng.Float64() * 360, Dec: rng.Float64()*180 - 90, Time: time.Second,
			}
			if _, err := repo.AddObjects([]model.Birth{b}); err != nil {
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
			RepoAddr: repo.Addr(),
			PolicyFactory: func() core.Policy {
				return loggingVCover{VCover: core.NewVCover(core.DefaultVCoverConfig()), log: log}
			},
			Objects:         base,
			ObjectFilter:    func(id model.ObjectID) bool { return oracle.owned[id] },
			Capacity:        survey.TotalSize(),
			ReshardCapacity: cache.ReplicatedCapacity,
			Scale:           netproto.DefaultScale(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer mw.Close()

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
				for _, id := range owned {
					o, err := survey.Object(id)
					if err != nil {
						t.Fatal(err)
					}
					meta = append(meta, o)
				}
				if _, _, err := mw.Reshard(epoch, owned, meta, nil); err != nil {
					t.Fatal(err)
				}
				var gained []model.ObjectID
				for _, id := range owned {
					if !oracle.owned[id] {
						gained = append(gained, id)
					}
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
		filtered += int64(nextUpdate) - repo.Notices()
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if filtered == 0 {
		t.Error("the filter spared the shard no notice in any trial")
	}
}
