package cluster

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// checkPartition verifies the core ownership invariant at any
// replication factor: every universe object has a ranked replica set of
// exactly min(K, shards) distinct shards in [0, shards), rank 0 agrees
// with the primary owner map, and the per-shard held lists mirror the
// replica sets exactly (sorted, no duplicates, no strays), and ranks
// walk the runs in spatial order (checkSpatialRanks). At K=1 this
// reduces to the original single-owner partition invariant.
func checkPartition(o *Ownership) error {
	if len(o.owner) != len(o.universe) {
		return fmt.Errorf("owner map spans %d objects, universe %d", len(o.owner), len(o.universe))
	}
	wantK := min(o.replicas, o.shards)
	holders := make(map[model.ObjectID]map[int]bool, len(o.owner))
	for s, objs := range o.byShard {
		for i, id := range objs {
			if i > 0 && objs[i-1] >= id {
				return fmt.Errorf("shard %d held list unsorted or duplicated around object %d", s, id)
			}
			if _, ok := o.pos(id); !ok {
				return fmt.Errorf("shard %d holds object %d outside the universe", s, id)
			}
			if holders[id] == nil {
				holders[id] = make(map[int]bool, wantK)
			}
			holders[id][s] = true
		}
	}
	for _, u := range o.universe {
		ranked, ok := o.Owners(u.ID)
		if !ok {
			return fmt.Errorf("universe object %d has no replica set", u.ID)
		}
		if len(ranked) != wantK {
			return fmt.Errorf("object %d has %d replicas, want min(K=%d, shards=%d)=%d",
				u.ID, len(ranked), o.replicas, o.shards, wantK)
		}
		if primary, _ := o.Owner(u.ID); ranked[0] != primary {
			return fmt.Errorf("object %d rank-0 replica %d disagrees with primary %d",
				u.ID, ranked[0], primary)
		}
		distinct := make(map[int]bool, wantK)
		for _, s := range ranked {
			if s < 0 || s >= o.shards {
				return fmt.Errorf("object %d replicated on out-of-range shard %d", u.ID, s)
			}
			if distinct[s] {
				return fmt.Errorf("object %d replica set repeats shard %d", u.ID, s)
			}
			distinct[s] = true
		}
		held := holders[u.ID]
		if len(held) != wantK {
			return fmt.Errorf("object %d held by %d shards, replica set has %d", u.ID, len(held), wantK)
		}
		for s := range distinct {
			if !held[s] {
				return fmt.Errorf("object %d assigned to shard %d but absent from its held list", u.ID, s)
			}
		}
	}
	return checkSpatialRanks(o)
}

// growthOp is one step of a random growth/resize schedule.
type growthOp struct {
	// Births is how many objects to publish before the resize (0-3).
	Births uint8
	// Shards is the resize target (mapped into a sane range); 0 means
	// no resize this step.
	Shards uint8
	// Trixel seeds the born objects' spatial placement.
	Trixel uint64
	// Size seeds the born objects' size.
	Size uint16
}

// TestQuickGrowthResizeSingleOwner is the satellite property test:
// across any growth sequence and any interleaved Resize, each live
// object is owned by exactly one shard per epoch — and extension is
// deterministic, so every party that replays the same schedule computes
// the identical map.
func TestQuickGrowthResizeSingleOwner(t *testing.T) {
	base := testObjects(t, 16)
	prop := func(startShards uint8, ops []growthOp) bool {
		n := int(startShards)%6 + 1
		own, err := NewOwnership(base, n, 1)
		if err != nil {
			t.Logf("new ownership: %v", err)
			return false
		}
		replay, _ := NewOwnership(base, n, 1)
		nextID := model.ObjectID(len(base) + 1)
		if len(ops) > 24 {
			ops = ops[:24]
		}
		for _, op := range ops {
			var objs []model.Object
			for i := 0; i < int(op.Births)%4; i++ {
				objs = append(objs, model.Object{
					ID:     nextID,
					Size:   cost.Bytes(int64(op.Size)%(1<<20) + 1),
					Trixel: op.Trixel % 4096,
				})
				nextID++
			}
			if own, err = own.Extend(objs); err != nil {
				t.Logf("extend: %v", err)
				return false
			}
			if replay, err = replay.Extend(objs); err != nil {
				return false
			}
			if err := checkPartition(own); err != nil {
				t.Logf("after extend: %v", err)
				return false
			}
			if m := int(op.Shards) % 8; m > 0 {
				if own, err = own.Resize(m); err != nil {
					t.Logf("resize to %d: %v", m, err)
					return false
				}
				if replay, err = replay.Resize(m); err != nil {
					return false
				}
				if err := checkPartition(own); err != nil {
					t.Logf("after resize to %d: %v", m, err)
					return false
				}
			}
			// Determinism: the replayed schedule computes the same map.
			for p := range own.universe {
				id := own.universe[p].ID
				rs, ok := replay.Owner(id)
				if !ok || rs != int(own.owner[p]) {
					t.Logf("replay diverged on object %d: %d vs %d", id, own.owner[p], rs)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickExtendNeverMovesExisting pins the "no relabeling" half of
// the growth design: extending the universe must not change any
// existing object's owner.
func TestQuickExtendNeverMovesExisting(t *testing.T) {
	base := testObjects(t, 16)
	prop := func(shards uint8, trixels []uint64) bool {
		n := int(shards)%6 + 2
		own, err := NewOwnership(base, n, 1)
		if err != nil {
			return false
		}
		if len(trixels) > 16 {
			trixels = trixels[:16]
		}
		nextID := model.ObjectID(len(base) + 1)
		for _, tx := range trixels {
			before := make(map[model.ObjectID]int, len(own.owner))
			for p := range own.universe {
				before[own.universe[p].ID] = int(own.owner[p])
			}
			own, err = own.Extend([]model.Object{{ID: nextID, Size: cost.MB, Trixel: tx % 4096}})
			if err != nil {
				return false
			}
			nextID++
			for id, s := range before {
				if got, _ := own.Owner(id); got != s {
					t.Logf("object %d moved %d→%d on extension", id, s, got)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// testRouting fronts own with one session-less link per shard, which is
// all the pure planner reads.
func testRouting(own *Ownership) *routing {
	links := make([]*shardLink, own.Shards())
	for i := range links {
		links[i] = &shardLink{index: i, addr: fmt.Sprintf("shard-%d", i)}
	}
	return &routing{own: own, links: links}
}

// pickObjects maps quick's random picks to a deduplicated, non-empty
// object list of at most 12 universe members.
func pickObjects(own *Ownership, picks []uint16) []model.ObjectID {
	if len(picks) == 0 {
		picks = []uint16{0}
	}
	if len(picks) > 12 {
		picks = picks[:12]
	}
	seen := make(map[model.ObjectID]struct{})
	var ids []model.ObjectID
	for _, p := range picks {
		id := own.universe[int(p)%len(own.universe)].ID
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		ids = append(ids, id)
	}
	return ids
}

// checkShares verifies one plan's cost split: the fragments' shares sum
// exactly to ν, and the remainder folded into the first fragment is the
// truncation loss of the proportional split — in [0, len(frags)), not a
// sign the shares drifted.
func checkShares(frags []fragment, q *model.Query) error {
	var sum cost.Bytes
	for _, fr := range frags {
		sum += fr.query.Cost
	}
	if sum != q.Cost {
		return fmt.Errorf("shares sum %d, ν %d", sum, q.Cost)
	}
	floor := q.Cost * cost.Bytes(len(frags[0].query.Objects)) / cost.Bytes(len(q.Objects))
	if rem := frags[0].query.Cost - floor; rem < 0 || rem >= cost.Bytes(len(frags)) {
		return fmt.Errorf("remainder %d out of range for %d fragments", rem, len(frags))
	}
	return nil
}

// TestQuickFragmentSharesSumToNu is the other satellite property:
// however a query's objects spread across shards — through any grown,
// resized ownership — the planner sends every object to its primary
// owner exactly once, in shard order, and the fragment cost shares it
// assigns sum exactly to ν(q), so cluster-wide traffic accounting stays
// exact.
func TestQuickFragmentSharesSumToNu(t *testing.T) {
	base := testObjects(t, 16)
	prop := func(shards uint8, births uint8, nu uint32, picks []uint16) bool {
		n := int(shards)%6 + 1
		own, err := NewOwnership(base, n, 1)
		if err != nil {
			return false
		}
		var objs []model.Object
		for i := 0; i < int(births)%24; i++ {
			objs = append(objs, model.Object{
				ID:     model.ObjectID(len(base) + i + 1),
				Size:   cost.MB,
				Trixel: uint64(i) * 97 % 4096,
			})
		}
		if own, err = own.Extend(objs); err != nil {
			return false
		}
		ids := pickObjects(own, picks)
		q := &model.Query{ID: 1, Objects: ids, Cost: cost.Bytes(nu)}
		frags, stranded, viaReplica := plan(testRouting(own), fragment{query: *q}, nil, false)
		if len(stranded) > 0 || viaReplica {
			t.Logf("plan stranded %v (via replica: %v) with nothing struck", stranded, viaReplica)
			return false
		}
		if err := checkShares(frags, q); err != nil {
			t.Log(err)
			return false
		}
		covered := make(map[model.ObjectID]struct{})
		for i, fr := range frags {
			if i > 0 && frags[i-1].link.index >= fr.link.index {
				t.Logf("fragments out of shard order: %d before %d", frags[i-1].link.index, fr.link.index)
				return false
			}
			for _, id := range fr.query.Objects {
				if owner, _ := own.Owner(id); owner != fr.link.index {
					t.Logf("object %d planned onto shard %d, primary is %d", id, fr.link.index, owner)
					return false
				}
				if _, dup := covered[id]; dup {
					t.Logf("object %d in two fragments", id)
					return false
				}
				covered[id] = struct{}{}
			}
		}
		if len(covered) != len(ids) {
			t.Logf("fragments cover %d of %d objects", len(covered), len(ids))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickReplicatedGrowthResize is the replication property test:
// across any growth sequence and any interleaved Resize, at any
// replication factor K ∈ 1..3, every live
// object keeps exactly min(K, shards) distinct ranked owners per epoch
// — Extend and Resize preserve K, never duplicate a replica, and keep
// the per-shard held lists consistent with the replica sets.
func TestQuickReplicatedGrowthResize(t *testing.T) {
	base := testObjects(t, 16)
	prop := func(startShards, k uint8, ops []growthOp) bool {
		n := int(startShards)%6 + 1
		kk := int(k)%3 + 1
		own, err := NewOwnership(base, n, kk)
		if err != nil {
			t.Logf("new ownership: %v", err)
			return false
		}
		if err := checkPartition(own); err != nil {
			t.Logf("K=%d initial: %v", kk, err)
			return false
		}
		nextID := model.ObjectID(len(base) + 1)
		if len(ops) > 16 {
			ops = ops[:16]
		}
		for _, op := range ops {
			var objs []model.Object
			for i := 0; i < int(op.Births)%4; i++ {
				objs = append(objs, model.Object{
					ID:     nextID,
					Size:   cost.Bytes(int64(op.Size)%(1<<20) + 1),
					Trixel: op.Trixel % 4096,
				})
				nextID++
			}
			if own, err = own.Extend(objs); err != nil {
				t.Logf("extend: %v", err)
				return false
			}
			if own.Replicas() != kk {
				t.Logf("extend changed K: %d → %d", kk, own.Replicas())
				return false
			}
			if err := checkPartition(own); err != nil {
				t.Logf("K=%d after extend: %v", kk, err)
				return false
			}
			if m := int(op.Shards) % 8; m > 0 {
				if own, err = own.Resize(m); err != nil {
					t.Logf("resize to %d: %v", m, err)
					return false
				}
				if own.Replicas() != kk {
					t.Logf("resize changed K: %d → %d", kk, own.Replicas())
					return false
				}
				if err := checkPartition(own); err != nil {
					t.Logf("K=%d after resize to %d: %v", kk, m, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickFailoverSharesSumToNu extends the cost-share property to
// shard failure under replication: at K ∈ {2, 3}, kill any 1..K−1
// shards and walk each fragment the way the attempt loop does — strike
// the dead link, re-plan, walk the groups — with the router's own
// planner. No group may target a struck link, every plan's shares sum
// exactly to its input's, and so the shares across surviving fragments
// and failover groups still sum to ν(q) with every object answered
// exactly once.
func TestQuickFailoverSharesSumToNu(t *testing.T) {
	base := testObjects(t, 16)
	prop := func(shards, k, dead, nDead uint8, nu uint32, picks []uint16) bool {
		kk := int(k)%2 + 2
		n := int(shards)%4 + kk // ≥ K, so K−1 deaths leave every object a holder
		own, err := NewOwnership(base, n, kk)
		if err != nil {
			return false
		}
		rt := testRouting(own)
		isDead := make(map[int]bool)
		for j := 0; j < int(nDead)%(kk-1)+1; j++ {
			isDead[(int(dead)+j)%n] = true
		}
		ids := pickObjects(own, picks)
		q := &model.Query{ID: 1, Objects: ids, Cost: cost.Bytes(nu)}
		var (
			sum     cost.Bytes
			covered = make(map[model.ObjectID]struct{})
		)
		var walk func(fr fragment, struck []string) bool
		walk = func(fr fragment, struck []string) bool {
			if slices.Contains(struck, fr.link.addr) {
				t.Logf("group re-targeted struck shard %d", fr.link.index)
				return false
			}
			if !isDead[fr.link.index] {
				sum += fr.query.Cost
				for _, id := range fr.query.Objects {
					if _, dup := covered[id]; dup {
						t.Logf("object %d answered twice", id)
						return false
					}
					covered[id] = struct{}{}
				}
				return true
			}
			struck = append(slices.Clip(struck), fr.link.addr)
			groups, stranded, viaReplica := plan(rt, fr, struck, false)
			if len(stranded) > 0 {
				t.Logf("K=%d stranded %v with %d shards dead", kk, stranded, len(isDead))
				return false
			}
			if err := checkShares(groups, &fr.query); err != nil {
				t.Logf("failover of shard %d: %v", fr.link.index, err)
				return false
			}
			for _, g := range groups {
				if !walk(g, struck) {
					return false
				}
			}
			if !viaReplica {
				t.Logf("failover of shard %d's fragment touched no replica", fr.link.index)
			}
			return viaReplica
		}
		frags, _, _ := plan(rt, fragment{query: *q}, nil, false)
		for _, fr := range frags {
			if !walk(fr, nil) {
				return false
			}
		}
		if sum != q.Cost {
			t.Logf("shares sum %d under failover, ν(q) %d", sum, q.Cost)
			return false
		}
		if len(covered) != len(ids) {
			t.Logf("failover covered %d of %d objects", len(covered), len(ids))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestExtendHTMJoinsOwningCut pins the HTM placement rule: a birth
// inheriting an existing object's trixel is owned by that object's
// shard (it joins the cut that spatially contains it).
func TestExtendHTMJoinsOwningCut(t *testing.T) {
	base := testObjects(t, 24)
	own, err := NewOwnership(base, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, host := range []int{0, 7, 23} {
		b := model.Object{
			ID:     model.ObjectID(len(base) + i + 1),
			Size:   cost.MB,
			Trixel: base[host].Trixel,
		}
		grown, err := own.Extend([]model.Object{b})
		if err != nil {
			t.Fatal(err)
		}
		wantOwner, _ := own.Owner(base[host].ID)
		if got, _ := grown.Owner(b.ID); got != wantOwner {
			t.Errorf("birth sharing object %d's trixel owned by shard %d, want %d",
				base[host].ID, got, wantOwner)
		}
		own = grown
	}
}

// TestExtendRejectsKnownObject pins dedup responsibility: extension
// with an already-owned ID is a caller bug, not a silent overwrite.
func TestExtendRejectsKnownObject(t *testing.T) {
	base := testObjects(t, 16)
	own, err := NewOwnership(base, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := own.Extend([]model.Object{base[3]}); err == nil {
		t.Fatal("extend with an existing object should fail")
	}
	if _, err := own.Extend(nil); err != nil {
		t.Fatalf("empty extension should be the identity: %v", err)
	}
}
