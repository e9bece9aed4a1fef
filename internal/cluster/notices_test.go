package cluster_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// countingBenefit is Benefit with the notices that reach it counted.
// Like Benefit it is unscoped: its shard registers what it owns.
type countingBenefit struct {
	*core.Benefit
	notices *atomic.Int64
}

func (p countingBenefit) OnUpdate(u *model.Update) (core.Decision, error) {
	p.notices.Add(1)
	return p.Benefit.OnUpdate(u)
}

// TestNoticeFanOutFollowsOwnership counts what the repository queues for
// N updates on shard 0's objects in a 2-shard cluster of unscoped
// shards: N to each shard that holds them, which registered them as its
// owned set, and none to the router, which registered nothing and hears
// nothing. At K=1 that is 1 notice per update where an unfiltered
// stream would cost 3; at K=2 both shards hold every object, so it is 2.
// Shard 0's N leaves exactly 0 (K=1) or N (K=2) for shard 1.
func TestNoticeFanOutFollowsOwnership(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			survey, repo := startRepository(t)
			applied := make([]atomic.Int64, 2)
			lc, err := cluster.SpawnLocal(cluster.LocalConfig{
				RepoAddr: repo.Addr(),
				Objects:  survey.Objects(),
				Shards:   2,
				Replicas: k,
				Policy: func(s int) core.Policy {
					return countingBenefit{Benefit: core.NewBenefit(core.BenefitConfig{Window: 40}), notices: &applied[s]}
				},
				Scale: netproto.DefaultScale(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			objs := lc.Ownership.ShardObjects(0)
			const n = 40
			notices := func() int64 { return int64(repo.Stats().Metric("delta_repo_notices_total")) }
			before := notices()
			for i := range n {
				repo.ApplyUpdate(model.Update{
					ID: model.UpdateID(i + 1), Object: objs[i%len(objs)], Cost: cost.KB, Time: time.Duration(i+1) * time.Second,
				})
			}
			if got, want := notices()-before, int64(n*k); got != want {
				t.Errorf("%d updates queued %d notices, want %d (%d per update)", n, got, want, k)
			}
			want := []int64{n, 0}
			if k == 2 {
				want[1] = n
			}
			deadline := time.Now().Add(5 * time.Second)
			for s := range applied {
				for applied[s].Load() != want[s] && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if got := applied[s].Load(); got != want[s] {
					t.Errorf("shard %d applied %d notices, want %d", s, got, want[s])
				}
			}
			if got := repo.DroppedInvalidations(); got != 0 {
				t.Errorf("repository dropped %d notices", got)
			}
		})
	}
}
