package core

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
			if _, ok := o.Pos(id); !ok {
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
func checkShares(frags []Fragment, q *model.Query) error {
	var sum cost.Bytes
	for _, fr := range frags {
		sum += fr.Query.Cost
	}
	if sum != q.Cost {
		return fmt.Errorf("shares sum %d, ν %d", sum, q.Cost)
	}
	floor := q.Cost * cost.Bytes(len(frags[0].Query.Objects)) / cost.Bytes(len(q.Objects))
	if rem := frags[0].Query.Cost - floor; rem < 0 || rem >= cost.Bytes(len(frags)) {
		return fmt.Errorf("remainder %d out of range for %d fragments", rem, len(frags))
	}
	return nil
}

// randomAlternates gives some of ids an alternate holder among the
// shards and the two positions past them, the way a resize window does.
func randomAlternates(ids []model.ObjectID, holders int, draws []uint16) map[model.ObjectID]int {
	alt := make(map[model.ObjectID]int)
	for _, d := range draws {
		alt[ids[int(d&0xff)%len(ids)]] = int(d>>8) % holders
	}
	return alt
}

// struckHolders strikes the holders below holders whose bit is set in
// mask.
func struckHolders(holders int, mask uint8) []int {
	var struck []int
	for h := range holders {
		if mask&(1<<h) != 0 {
			struck = append(struck, h)
		}
	}
	return struck
}

// checkSplit holds one Split (no narrowed retry) to its definition:
// every object of fr goes to its first candidate not struck — its
// ranked owners, then its alternate — and is stranded only when every
// candidate is; fragments are non-empty, in holder order, and name each
// object once; viaReplica says whether some object went to a rank ≥ 1
// owner; and whenever nothing is stranded the shares sum to fr's ν,
// while beside stranded objects each share is its proportional floor.
func checkSplit(own *Ownership, alt map[model.ObjectID]int, fr Fragment, struck []int, frags []Fragment, stranded []model.ObjectID, viaReplica bool) error {
	holderOf := make(map[model.ObjectID]int)
	for i, f := range frags {
		if i > 0 && frags[i-1].Holder >= f.Holder {
			return fmt.Errorf("fragments out of holder order: %d before %d", frags[i-1].Holder, f.Holder)
		}
		if len(f.Query.Objects) == 0 {
			return fmt.Errorf("holder %d got an empty fragment", f.Holder)
		}
		for _, id := range f.Query.Objects {
			if _, dup := holderOf[id]; dup {
				return fmt.Errorf("object %d in two fragments", id)
			}
			holderOf[id] = f.Holder
		}
	}
	var wantStranded []model.ObjectID
	wantVia := false
	for _, id := range fr.Query.Objects {
		ranked, _ := own.Owners(id)
		cands := ranked
		if a, ok := alt[id]; ok {
			cands = append(slices.Clip(ranked), a)
		}
		c := slices.IndexFunc(cands, func(h int) bool { return !slices.Contains(struck, h) })
		got, placed := holderOf[id]
		switch {
		case c < 0 && placed:
			return fmt.Errorf("object %d went to holder %d, every candidate of %v struck", id, got, cands)
		case c < 0:
			wantStranded = append(wantStranded, id)
		case !placed:
			return fmt.Errorf("object %d stranded, its candidate %d of %v not struck", id, cands[c], cands)
		case got != cands[c]:
			return fmt.Errorf("object %d went to holder %d, its first free candidate is %d of %v", id, got, cands[c], cands)
		default:
			wantVia = wantVia || c > 0 && c < len(ranked)
		}
	}
	if !slices.Equal(stranded, wantStranded) {
		return fmt.Errorf("stranded %v, want %v", stranded, wantStranded)
	}
	if len(holderOf) != len(fr.Query.Objects)-len(wantStranded) {
		return fmt.Errorf("fragments name %d objects, %d were placeable", len(holderOf), len(fr.Query.Objects)-len(wantStranded))
	}
	if viaReplica != wantVia {
		return fmt.Errorf("via replica %v, want %v", viaReplica, wantVia)
	}
	if len(stranded) == 0 {
		return checkShares(frags, &fr.Query)
	}
	for _, f := range frags {
		if want := fr.Query.Cost * cost.Bytes(len(f.Query.Objects)) / cost.Bytes(len(fr.Query.Objects)); f.Query.Cost != want {
			return fmt.Errorf("holder %d charged %d beside stranded objects, want its proportional %d", f.Holder, f.Query.Cost, want)
		}
	}
	return nil
}

// TestQuickFragmentSharesSumToNu is the other satellite property:
// however a query's objects spread across shards — through any grown,
// resized ownership — the planner sends every object to its primary
// owner exactly once, in shard order, and the fragment cost shares it
// assigns sum exactly to ν(q), so cluster-wide traffic accounting stays
// exact. Under a random alternate map and struck set, at K = 1..3, each
// object goes to its first candidate not struck, is stranded only when
// every candidate is, and the shares still sum to ν(q) whenever nothing
// is stranded (checkSplit).
func TestQuickFragmentSharesSumToNu(t *testing.T) {
	base := testObjects(t, 16)
	prop := func(shards, k, births uint8, nu uint32, picks, alts []uint16, mask uint8) bool {
		n := int(shards)%6 + 1
		own, err := NewOwnership(base, n, int(k)%3+1)
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
		root := Fragment{Holder: -1, Query: model.Query{ID: 1, Objects: ids, Cost: cost.Bytes(nu)}}
		frags, stranded, viaReplica := own.Split(nil, root, nil, false)
		if len(stranded) > 0 || viaReplica {
			t.Logf("plan stranded %v (via replica: %v) with nothing struck", stranded, viaReplica)
			return false
		}
		if err := checkSplit(own, nil, root, nil, frags, stranded, viaReplica); err != nil {
			t.Logf("nothing struck: %v", err)
			return false
		}
		alt := randomAlternates(ids, n+2, alts)
		struck := struckHolders(n+2, mask)
		frags, stranded, viaReplica = own.Split(alt, root, struck, false)
		if err := checkSplit(own, alt, root, struck, frags, stranded, viaReplica); err != nil {
			t.Logf("alternates %v, struck %v: %v", alt, struck, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
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
// the dead holder, re-split, walk the groups — with the router's own
// planner, under a random alternate map and a random set of holders
// already struck. No group may target a struck holder, every split
// holds to its definition (checkSplit), every object is answered or
// stranded exactly once, and with nothing stranded the shares across
// surviving fragments and failover groups still sum to ν(q).
func TestQuickFailoverSharesSumToNu(t *testing.T) {
	base := testObjects(t, 16)
	prop := func(shards, k, dead, nDead uint8, nu uint32, picks, alts []uint16, mask uint8) bool {
		kk := int(k)%2 + 2
		n := int(shards)%4 + kk // ≥ K, so K−1 deaths leave every object a holder
		own, err := NewOwnership(base, n, kk)
		if err != nil {
			return false
		}
		isDead := make(map[int]bool)
		for j := 0; j < int(nDead)%(kk-1)+1; j++ {
			isDead[(int(dead)+j)%n] = true
		}
		ids := pickObjects(own, picks)
		alt := randomAlternates(ids, n+2, alts)
		q := &model.Query{ID: 1, Objects: ids, Cost: cost.Bytes(nu)}
		var (
			sum     cost.Bytes
			done    = make(map[model.ObjectID]bool) // answered (true) or stranded
			anyLost bool
		)
		settle := func(id model.ObjectID, answered bool) bool {
			if _, dup := done[id]; dup {
				t.Logf("object %d answered or stranded twice", id)
				return false
			}
			done[id] = answered
			anyLost = anyLost || !answered
			return true
		}
		split := func(fr Fragment, struck []int) ([]Fragment, bool) {
			groups, stranded, viaReplica := own.Split(alt, fr, struck, false)
			if err := checkSplit(own, alt, fr, struck, groups, stranded, viaReplica); err != nil {
				t.Logf("K=%d, dead %v, alternates %v, struck %v: %v", kk, isDead, alt, struck, err)
				return nil, false
			}
			for _, id := range stranded {
				if !settle(id, false) {
					return nil, false
				}
			}
			return groups, true
		}
		var walk func(fr Fragment, struck []int) bool
		walk = func(fr Fragment, struck []int) bool {
			if slices.Contains(struck, fr.Holder) {
				t.Logf("group re-targeted struck holder %d", fr.Holder)
				return false
			}
			if !isDead[fr.Holder] {
				sum += fr.Query.Cost
				for _, id := range fr.Query.Objects {
					if !settle(id, true) {
						return false
					}
				}
				return true
			}
			struck = append(slices.Clip(struck), fr.Holder)
			groups, ok := split(fr, struck)
			if !ok {
				return false
			}
			for _, g := range groups {
				if !walk(g, struck) {
					return false
				}
			}
			return true
		}
		pre := struckHolders(n+2, mask)
		frags, ok := split(Fragment{Holder: -1, Query: *q}, pre)
		if !ok {
			return false
		}
		for _, fr := range frags {
			if !walk(fr, pre) {
				return false
			}
		}
		if len(done) != len(ids) {
			t.Logf("failover settled %d of %d objects", len(done), len(ids))
			return false
		}
		if !anyLost && sum != q.Cost {
			t.Logf("shares sum %d under failover, ν(q) %d", sum, q.Cost)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
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
