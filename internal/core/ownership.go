package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync/atomic"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// Ownership is the deterministic object→shard assignment. Only the
// router computes it; each shard learns its part from the router's
// reshards. Each shard's primaries are one of n contiguous,
// size-balanced runs of the universe in HTM trixel order, so spatially
// adjacent objects co-locate and a cap query's cover — always a
// spatially contiguous object set — touches few shards. It is
// immutable to its readers and safe for concurrent use; Resize and
// Extend derive a new Ownership rather than mutating this one.
// (Extend's first child appends into the spare capacity past this
// value's slice lengths — memory no reader of this value ever
// addresses — so growth costs the batch, not the universe.)
//
// The representation is position-indexed: survey universes carry dense
// sequential IDs (1..N, births continuing the sequence), so the
// primary owner and the ranked replica sets live in flat slices
// indexed by universe position — 4 bytes and 4·K bytes per object —
// instead of per-object map entries and ranked []int allocations,
// which at a million objects cost hundreds of megabytes and dominated
// construction time under the race detector. Universes with
// non-sequential IDs fall back to an explicit index map.
type Ownership struct {
	shards int
	// replicas is the requested replication factor K (≥ 1); kEff is
	// the effective per-object factor min(replicas, shards).
	replicas int
	kEff     int
	// universe is the object set the assignment was computed over,
	// retained so Resize can recompute ownership at a new shard count.
	universe []model.Object
	// seq records that universe[i].ID == i+1 for every i, making
	// position lookup arithmetic; idx is the fallback index otherwise.
	seq bool
	idx map[model.ObjectID]int
	// owner[i] is the rank-0 (primary) shard of universe[i].
	owner []int32
	// ownersFlat holds the ranked replica sets back to back:
	// universe[i]'s set is ownersFlat[i*kEff : (i+1)*kEff], rank 0
	// first, entries distinct.
	ownersFlat []int32
	// byShard[s] lists the objects shard s holds at any replica rank,
	// sorted by ID.
	byShard [][]model.ObjectID
	// right[s] is the shard whose run lies next to shard s's along the
	// spatial order (mod shards), the walk replica ranks take. A fresh
	// cut labels runs in spatial order, so right[s] = s+1 mod n; Resize
	// relabels the runs and permutes right with them. Shared read-only
	// by every Extend descendant.
	right []int32
	// cutOrder is the (trixel, ID) sort the cuts were made over, as
	// universe positions: universe[:len(cutOrder)] in spatial order.
	// Objects born since (Extend) are not in it — they take their
	// spatial predecessor's cut and never start one. Shared read-only
	// by every Extend descendant.
	cutOrder []int32
	// extended is set by the first Extend of this value, which may then
	// append in place past the slice lengths above; a later Extend of
	// the same value finds it set and copies instead, so siblings never
	// write the same spare capacity.
	extended atomic.Bool
}

// NewOwnership assigns every object in the universe to a ranked set of
// min(k, n) distinct shards. Rank 0 is the primary — the shard queries
// route to first — and ranks 1..K-1 are failover and hedging targets
// holding warm copies. The assignment is a pure function of
// (universe, n, k), so every computation of it agrees.
func NewOwnership(objects []model.Object, n, k int) (*Ownership, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: shard count must be positive, got %d", n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: replication factor must be positive, got %d", k)
	}
	if len(objects) == 0 {
		return nil, fmt.Errorf("core: empty object universe")
	}
	if len(objects) < n {
		return nil, fmt.Errorf("core: %d objects cannot populate %d shards", len(objects), n)
	}
	o := &Ownership{
		shards:   n,
		replicas: k,
		kEff:     min(k, n),
		universe: slices.Clone(objects),
		owner:    make([]int32, len(objects)),
	}
	o.reindex()
	o.assignCuts()
	o.deriveReplicas()
	return o, nil
}

// reindex establishes position lookup: the sequential fast path when
// IDs are dense 1..N, an index map otherwise.
func (o *Ownership) reindex() {
	o.seq = true
	for i := range o.universe {
		if o.universe[i].ID != model.ObjectID(i+1) {
			o.seq = false
			break
		}
	}
	if o.seq {
		o.idx = nil
		return
	}
	o.idx = make(map[model.ObjectID]int, len(o.universe))
	for i := range o.universe {
		o.idx[o.universe[i].ID] = i
	}
}

// Pos returns an object's index in Universe(), which Extend and Resize
// keep, or false for an object outside the universe.
func (o *Ownership) Pos(id model.ObjectID) (int, bool) {
	if o.seq {
		p := int(id) - 1
		if p >= 0 && p < len(o.universe) {
			return p, true
		}
		return 0, false
	}
	p, ok := o.idx[id]
	return p, ok
}

// deriveReplicas rebuilds the ranked replica sets and the per-shard
// held lists from the primary assignment. Ranks go to the K cuts
// starting at the owning one and walking right along the spatial order
// (mod shards), so an object's replicas are the primaries of the runs
// spatially next to its own — contiguity is preserved at every rank.
func (o *Ownership) deriveReplicas() {
	k := o.kEff
	o.ownersFlat = make([]int32, len(o.universe)*k)
	counts := make([]int, o.shards)
	for i := range o.universe {
		ranked := o.ownersFlat[i*k : (i+1)*k]
		o.rankInto(o.owner[i], ranked)
		o.owner[i] = ranked[0]
		for _, s := range ranked {
			counts[s]++
		}
	}
	o.byShard = make([][]model.ObjectID, o.shards)
	for s := range o.byShard {
		o.byShard[s] = make([]model.ObjectID, 0, counts[s])
	}
	for i := range o.universe {
		id := o.universe[i].ID
		for _, s := range o.ownersFlat[i*k : (i+1)*k] {
			o.byShard[s] = append(o.byShard[s], id)
		}
	}
	for s := range o.byShard {
		// Universe order already yields ascending IDs on the
		// sequential fast path; sort only when it does not.
		if !slices.IsSorted(o.byShard[s]) {
			slices.Sort(o.byShard[s])
		}
	}
}

// rankInto writes one object's ranked replica set into ranked
// (len kEff), given its primary cut: the owning cut plus its right
// neighbors.
func (o *Ownership) rankInto(cut int32, ranked []int32) {
	for r := range ranked {
		ranked[r] = cut
		cut = o.right[cut]
	}
}

// assignCuts sorts the universe spatially (by trixel ID, which orders
// the HTM mesh depth-first so numeric neighbors are spatial neighbors)
// and cuts it into n contiguous, size-balanced runs. Objects without a
// trixel (a non-HTM universe) fall back to ID order, which the survey
// builder also derives from sky position.
func (o *Ownership) assignCuts() {
	order := make([]int32, len(o.universe))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return cutBefore(&o.universe[order[a]], &o.universe[order[b]])
	})
	o.cutOrder = order
	o.right = make([]int32, o.shards)
	for s := range o.right {
		o.right[s] = int32((s + 1) % o.shards)
	}
	var total int64
	for i := range o.universe {
		total += int64(o.universe[i].Size)
	}
	// Greedy balanced cut: close the current run once it reaches its
	// fair share of the remaining weight, always leaving enough
	// objects to populate the remaining shards.
	shard, acc := 0, int64(0)
	remaining, remainingShards := total, int64(o.shards)
	for i, p := range order {
		size := int64(o.universe[p].Size)
		objectsLeft := len(order) - i
		shardsLeft := o.shards - shard
		if shard < o.shards-1 && acc > 0 &&
			(acc+size/2 >= remaining/remainingShards || objectsLeft <= shardsLeft) {
			remaining -= acc
			remainingShards--
			shard++
			acc = 0
		}
		o.owner[p] = int32(shard)
		acc += size
	}
}

// cutBefore is the (trixel, ID) order HTM cuts are made over.
func cutBefore(a, b *model.Object) bool {
	if a.Trixel != b.Trixel {
		return a.Trixel < b.Trixel
	}
	return a.ID < b.ID
}

// Resize derives the ownership of the same universe over m shards,
// aligned to o so that as little cached state as possible moves: it
// recuts the spatially sorted universe into m balanced runs and then
// relabels the runs to maximize the total size of objects keeping
// their old owner index (greedy maximum-overlap matching). Without the
// relabeling a 4→8 recut would renumber every run and "move" nearly
// the whole universe even though the cuts barely shifted.
//
// The result is deterministic, so a router and an out-of-band tool
// compute identical resized maps from the same inputs.
func (o *Ownership) Resize(m int) (*Ownership, error) {
	if m == o.shards {
		return o, nil
	}
	n, err := NewOwnership(o.universe, m, o.replicas)
	if err != nil {
		return nil, err
	}
	n.relabel(o)
	return n, nil
}

// relabel permutes n's shard indices to maximize the total object size
// that keeps its owner from o (labels ≥ n.shards cannot be kept when
// shrinking). Greedy by descending overlap, which is optimal for the
// contiguous-run structure HTM cuts produce: a new run overlaps at
// most a few old runs, and overlaps are nested along the spatial
// order.
func (n *Ownership) relabel(o *Ownership) {
	// pairBytes[raw*n.shards+label] accumulates the object bytes that
	// keep their owner if raw run index `raw` takes old label `label`.
	pairBytes := make([]cost.Bytes, n.shards*n.shards)
	for pos := range n.universe {
		obj := &n.universe[pos]
		oldPos, ok := o.Pos(obj.ID)
		if !ok {
			continue
		}
		old := int(o.owner[oldPos])
		if old >= n.shards {
			continue
		}
		pairBytes[int(n.owner[pos])*n.shards+old] += obj.Size
	}
	type overlap struct {
		raw, label int
		bytes      cost.Bytes
	}
	cands := make([]overlap, 0, len(pairBytes))
	for i, b := range pairBytes {
		if b > 0 {
			cands = append(cands, overlap{raw: i / n.shards, label: i % n.shards, bytes: b})
		}
	}
	slices.SortFunc(cands, func(a, b overlap) int {
		if a.bytes != b.bytes {
			if a.bytes > b.bytes {
				return -1
			}
			return 1
		}
		if a.raw != b.raw {
			return a.raw - b.raw
		}
		return a.label - b.label
	})
	perm := make([]int, n.shards) // raw index → final label
	for i := range perm {
		perm[i] = -1
	}
	labelUsed := make([]bool, n.shards)
	for _, c := range cands {
		if perm[c.raw] == -1 && !labelUsed[c.label] {
			perm[c.raw] = c.label
			labelUsed[c.label] = true
		}
	}
	next := 0
	for raw := range perm {
		if perm[raw] != -1 {
			continue
		}
		for labelUsed[next] {
			next++
		}
		perm[raw] = next
		labelUsed[next] = true
	}
	for pos := range n.owner {
		n.owner[pos] = int32(perm[n.owner[pos]])
	}
	right := make([]int32, n.shards)
	for raw, next := range n.right {
		right[perm[raw]] = int32(perm[next])
	}
	n.right = right
	// The replica rule is anchored to primary labels, so the
	// permutation invalidates the derived sets — rebuild them.
	n.deriveReplicas()
}

// Extend derives the ownership of the universe grown by newly born
// objects, at the same shard count. Extension never relabels existing
// assignments — only the newborns are placed, each in the cut that
// spatially contains it: the owner of its predecessor in the
// (trixel, ID) sort order the cuts were made over (births inherit their
// partition cell's trixel, so the predecessor is the cell's base object
// or an earlier sibling birth). No existing object moves.
//
// The returned ownership retains the grown universe, so a later Resize
// recuts over newborns and base objects alike. Deterministic: every
// party extends to the identical map. A newborn already owned is an
// error — callers deduplicate against the current universe.
//
// The cost is the batch's, amortized: the child appends the newborns to
// the parent's arrays in place (see extended) rather than copying the
// universe, and o keeps answering exactly as before — its slice lengths
// never move. Two cases still copy: a second Extend of the same o, and
// a universe whose IDs are not the dense sequence 1..N, whose index map
// is cloned per child.
func (o *Ownership) Extend(objs []model.Object) (*Ownership, error) {
	if len(objs) == 0 {
		return o, nil
	}
	seq := o.seq
	added := make(map[model.ObjectID]struct{}, len(objs))
	for i, obj := range objs {
		_, owned := o.Pos(obj.ID)
		if _, dup := added[obj.ID]; owned || dup {
			return nil, fmt.Errorf("core: extend with already-owned object %d", obj.ID)
		}
		added[obj.ID] = struct{}{}
		seq = seq && obj.ID == model.ObjectID(len(o.universe)+i+1)
	}
	// The first child owns the parent's spare capacity; a sibling clips
	// it away so that its appends copy.
	inPlace := o.extended.CompareAndSwap(false, true)
	n := &Ownership{
		shards:     o.shards,
		replicas:   o.replicas,
		kEff:       o.kEff,
		universe:   append(spare(o.universe, inPlace), objs...),
		seq:        seq,
		owner:      spare(o.owner, inPlace),
		ownersFlat: spare(o.ownersFlat, inPlace),
		byShard:    make([][]model.ObjectID, o.shards),
		right:      o.right,
		cutOrder:   o.cutOrder,
	}
	for s := range n.byShard {
		n.byShard[s] = spare(o.byShard[s], inPlace)
	}
	if !seq && o.seq {
		// The batch broke the dense sequence: index everything.
		n.idx = make(map[model.ObjectID]int, len(n.universe))
		for p := range n.universe {
			n.idx[n.universe[p].ID] = p
		}
	} else if !seq {
		n.idx = maps.Clone(o.idx)
		for i, obj := range objs {
			n.idx[obj.ID] = len(o.universe) + i
		}
	}
	for i := range objs {
		obj := &objs[i]
		n.ownersFlat = append(n.ownersFlat, make([]int32, o.kEff)...)
		ranked := n.ownersFlat[len(n.ownersFlat)-o.kEff:]
		o.rankInto(o.cutOwner(obj), ranked)
		n.owner = append(n.owner, ranked[0])
		for _, s := range ranked {
			held := n.byShard[s]
			if len(held) == 0 || held[len(held)-1] < obj.ID {
				n.byShard[s] = append(held, obj.ID)
				continue
			}
			// An ID below the shard's last: insert in order, on a copy
			// (the shift would move entries the parent still reads).
			at, _ := slices.BinarySearch(held, obj.ID)
			n.byShard[s] = slices.Insert(slices.Clip(held), at, obj.ID)
		}
	}
	return n, nil
}

// spare returns s with its spare capacity for an in-place append, or
// clipped so that an append copies.
func spare[T any](s []T, inPlace bool) []T {
	if inPlace {
		return s
	}
	return slices.Clip(s)
}

// cutOwner returns the shard whose contiguous cut contains the
// newborn: the owner of its predecessor in the (trixel, ID) order the
// cuts were made over, falling back to the spatially first object for
// a newborn before every cut. Searching cutOrder alone is enough: an
// earlier birth between the newborn and that predecessor took the same
// predecessor's cut itself.
func (o *Ownership) cutOwner(obj *model.Object) int32 {
	after := sort.Search(len(o.cutOrder), func(i int) bool {
		return cutBefore(obj, &o.universe[o.cutOrder[i]])
	})
	return o.owner[o.cutOrder[max(after-1, 0)]]
}

// Moving returns the objects whose owning shard index differs between
// two ownerships of the same universe, sorted by ID — exactly the set
// a live resize must migrate. An object known to only one side is an
// error: the ownerships describe different universes.
func Moving(from, to *Ownership) ([]model.ObjectID, error) {
	if len(from.universe) != len(to.universe) {
		return nil, fmt.Errorf("core: ownerships span %d vs %d objects",
			len(from.universe), len(to.universe))
	}
	var moving []model.ObjectID
	for p := range from.universe {
		id := from.universe[p].ID
		tp, ok := to.Pos(id)
		if !ok {
			return nil, fmt.Errorf("core: object %d missing from target ownership", id)
		}
		if from.owner[p] != to.owner[tp] {
			moving = append(moving, id)
		}
	}
	if !slices.IsSorted(moving) {
		slices.Sort(moving)
	}
	return moving, nil
}

// Universe returns the objects this ownership spans, births included,
// in position order: shared, so callers only read it, and clipped, so
// an append copies rather than writing the spare capacity Extend uses.
func (o *Ownership) Universe() []model.Object {
	return slices.Clip(o.universe)
}

// Shards returns the shard count.
func (o *Ownership) Shards() int { return o.shards }

// Replicas returns the requested replication factor K (the effective
// per-object factor is min(K, Shards())).
func (o *Ownership) Replicas() int { return o.replicas }

// Owner returns the primary shard owning an object, or false for an
// object outside the universe.
func (o *Ownership) Owner(id model.ObjectID) (int, bool) {
	p, ok := o.Pos(id)
	if !ok {
		return 0, false
	}
	return int(o.owner[p]), true
}

// Owners returns an object's ranked replica set — primary first, then
// the failover order — or false for an object outside the universe.
// The returned slice is a copy.
func (o *Ownership) Owners(id model.ObjectID) ([]int, bool) {
	p, ok := o.Pos(id)
	if !ok {
		return nil, false
	}
	ranked := make([]int, o.kEff)
	for r, s := range o.ownersFlat[p*o.kEff : (p+1)*o.kEff] {
		ranked[r] = int(s)
	}
	return ranked, true
}

// ShardObjects returns the objects shard s holds at any replica rank,
// sorted by ID.
func (o *Ownership) ShardObjects(s int) []model.ObjectID {
	out := make([]model.ObjectID, len(o.byShard[s]))
	copy(out, o.byShard[s])
	return out
}

// Fragment is one holder's slice of a query, the unit Split cuts. Holder
// is a shard index, or at Shards() and above one of the alternate
// holders of a resize window (see Split).
type Fragment struct {
	Holder int
	Query  model.Query
}

// Split cuts fr's query into per-holder fragments, and is the only
// place that knows where an object may be asked for: its candidates
// are its ranked owners, then — during a resize — its alternate holder
// alt[id] (a new holder before the flip, a still-warm old one after).
// Each object goes to its first candidate not struck; one with none is
// stranded. retry says fr's holder is a live shard that rejected fr: an
// ownership recut makes a shard refuse a whole fragment over one moved
// object although it still owns the rest, so when only some objects
// found another candidate, the stranded ones are retried there as a
// strictly narrower fragment (a negative fr.Holder has no such retry).
// Fragments come out in holder order, each keeping fr's query identity,
// time, tolerance and trace, with ν split proportionally to object
// counts; when nothing is stranded the rounding remainder is charged to
// the first fragment, so the shares sum exactly to fr's. viaReplica
// reports whether any object goes to a rank ≥ 1 owner.
func (o *Ownership) Split(alt map[model.ObjectID]int, fr Fragment, struck []int, retry bool) (frags []Fragment, stranded []model.ObjectID, viaReplica bool) {
	objs := fr.Query.Objects
	frags = make([]Fragment, 0, min(len(objs), o.shards))
	at := make(map[int]int, cap(frags))
	add := func(holder int, id model.ObjectID) {
		i, ok := at[holder]
		if !ok {
			i, at[holder] = len(frags), len(frags)
			frags = append(frags, fr)
			frags[i].Holder, frags[i].Query.Objects = holder, nil
		}
		frags[i].Query.Objects = append(frags[i].Query.Objects, id)
	}
	k := o.kEff
	for _, id := range objs {
		var ranked []int32
		if p, ok := o.Pos(id); ok {
			ranked = o.ownersFlat[p*k : (p+1)*k]
		}
		c := 0
		for ; c <= len(ranked); c++ {
			cand, ok := alt[id]
			if c < len(ranked) {
				cand, ok = int(ranked[c]), true
			}
			if ok && !slices.Contains(struck, cand) {
				add(cand, id)
				viaReplica = viaReplica || c > 0 && c < len(ranked)
				break
			}
		}
		if c > len(ranked) {
			stranded = append(stranded, id)
		}
	}
	if retry && fr.Holder >= 0 && len(stranded) > 0 && len(stranded) < len(objs) {
		for _, id := range stranded {
			add(fr.Holder, id)
		}
		stranded = nil
	}
	slices.SortFunc(frags, func(a, b Fragment) int { return cmp.Compare(a.Holder, b.Holder) })
	rest := fr.Query.Cost
	for i := range frags {
		frags[i].Query.Cost = fr.Query.Cost * cost.Bytes(len(frags[i].Query.Objects)) / cost.Bytes(len(objs))
		rest -= frags[i].Query.Cost
	}
	if len(stranded) == 0 && len(frags) > 0 {
		frags[0].Query.Cost += rest
	}
	return frags, stranded, viaReplica
}
