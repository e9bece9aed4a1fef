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

// countingVCover is VCover with the notices that reach it counted.
type countingVCover struct {
	*core.VCover
	notices *atomic.Int64
}

func (p countingVCover) OnUpdate(u *model.Update) (core.Decision, error) {
	p.notices.Add(1)
	return p.VCover.OnUpdate(u)
}

// TestNoticeFanOutFollowsOwnership counts what the repository queues for
// N updates on shard 0's objects in a 2-shard cluster: N to each shard
// that holds them and N to the router, which filters nothing. At K=1
// that is 2 notices per update where an unfiltered stream costs 3; at
// K=2 both shards hold every object, so it stays 3. The filter passes a
// superset of what a shard owns, so shard 0's N and the router's N
// leave exactly 0 (K=1) or N (K=2) for shard 1.
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
				Mode:     cluster.HTMAware,
				Policy: func(s int) core.Policy {
					return countingVCover{VCover: core.NewVCover(core.DefaultVCoverConfig()), notices: &applied[s]}
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
			if got, want := notices()-before, int64(n*(1+k)); got != want {
				t.Errorf("%d updates queued %d notices, want %d (%d per update)", n, got, want, 1+k)
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
