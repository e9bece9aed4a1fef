// Live elastic resharding: taking the routing tier from N to M shards
// while serving queries, with cached state following ownership warm
// instead of restarting cold.
//
// Because ownership is a pure function of (universe, shard count,
// mode), a resize is an ownership diff plus choreography. Residency is
// bookkeeping — no cached bytes exist to move — so warmth travels as a
// list: before widening, the router reads every old shard's resident
// set with one MsgStats probe, and each new holder of an object that
// its old primary holds resident gets the object on its warm list. The
// rebalancer then runs three phases:
//
//  1. widen  — every shard in the new config accepts the union of its
//     old and new owned sets (MsgReshard), so queries keep landing on
//     a willing shard no matter which side of the flip routed them.
//     Its live policy keeps its residents and adopts its warm list
//     (ReshardMsg.Warm) through core.Warmable.
//  2. flip   — the router publishes the new routing epoch atomically;
//     new queries route to the new owners, which are already warm.
//  3. narrow — continuing shards drop ownership (and residency) of
//     what they gave away (MsgReshard with the exact new set).
//
// Queries are double-routed throughout the window: every moving
// object's routing snapshot records an alternate owner (a new holder
// before the flip, the still-warm old holder after it), so a fragment
// that fails on its primary is re-sent instead of degrading the answer.
// Failure semantics: a source whose probe fails contributes no warm
// list, so its moving objects arrive cold, costing traffic, never
// correctness; a failed widen aborts the resize before any routing
// change (a partially widened filter is harmless — it only accepts more
// than the router will send); a failed narrow leaves a filter wide
// until the next successful resize.
package cluster

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// reshardTarget pairs a shard's index and link with the owned set a
// reshard phase should install on it and, on widen, the warm list.
type reshardTarget struct {
	shard int
	link  *shardLink
	owned []model.ObjectID
	warm  []model.ObjectID
}

// ResizeSpec parameterizes a live resize.
type ResizeSpec struct {
	// Shards is the complete new shard address list, in new shard
	// index order. Addresses already in the cluster keep their
	// sessions and — when they keep their position, which grow/shrink
	// by appending/truncating naturally does, and which the aligned
	// ownership resize optimizes for — most of their cached state; new
	// addresses are dialed (the shards must already be running and own
	// nothing the router will route to them before the flip);
	// addresses no longer listed are drained from the routing table
	// but not shut down (they are not the router's to stop).
	Shards []string
	// SkipMigration skips the residency probe and sends no warm lists,
	// so new holders start cold. RestartShard resizes this way, and
	// TestResizeColdBaselineLosesWarmth holds it against a warm resize.
	// Routing still flips atomically.
	SkipMigration bool
}

// RebalanceStatus returns the router's current rebalance view.
func (r *Router) RebalanceStatus() netproto.RebalanceStatusMsg {
	r.statusMu.Lock()
	defer r.statusMu.Unlock()
	st := r.status
	return st
}

func (r *Router) setStatus(mut func(*netproto.RebalanceStatusMsg)) {
	r.statusMu.Lock()
	mut(&r.status)
	r.statusMu.Unlock()
}

// Resize takes the cluster from its current shard set to spec.Shards,
// live. It blocks until the resize completes (the admin frame path
// serves it synchronously) and returns the final status. Exactly one
// resize runs at a time; a second request fails fast.
func (r *Router) Resize(ctx context.Context, spec ResizeSpec) (netproto.RebalanceStatusMsg, error) {
	if err := checkShardAddrs(spec.Shards); err != nil {
		return r.RebalanceStatus(), err
	}
	if !r.resizeMu.TryLock() {
		return r.RebalanceStatus(), fmt.Errorf("cluster: a resize is already in progress")
	}
	defer r.resizeMu.Unlock()
	// Serialize against birth adoption: a birth in flight finishes
	// extending the routing universe before the resize snapshots it,
	// and no birth extends a snapshot this resize is about to replace.
	r.growMu.Lock()
	defer r.growMu.Unlock()

	rt := r.routing.Load()
	from, to := len(rt.links), len(spec.Shards)
	epoch := rt.epoch + 1
	r.setStatus(func(st *netproto.RebalanceStatusMsg) {
		*st = netproto.RebalanceStatusMsg{
			Active: true, Phase: "widen", Epoch: epoch,
			From: from, To: to,
			Completed: st.Completed,
		}
	})
	// An aborted resize must not leak the sessions it dialed to shards
	// that never joined the routing table.
	var dialedNew []string
	fail := func(err error) (netproto.RebalanceStatusMsg, error) {
		for _, addr := range dialedNew {
			r.dropLink(addr)
		}
		r.setStatus(func(st *netproto.RebalanceStatusMsg) {
			st.Active = false
			st.Phase = "failed"
			st.LastError = err.Error()
		})
		return r.RebalanceStatus(), err
	}

	ownNew, err := rt.own.Resize(to)
	if err != nil {
		return fail(err)
	}
	linksNew := make([]*shardLink, to)
	for i, addr := range spec.Shards {
		if rt.holderAt(addr) < 0 {
			dialedNew = append(dialedNew, addr)
		}
		link, err := r.dialLink(addr)
		if err != nil {
			return fail(fmt.Errorf("cluster: dial new shard %d (%s): %w", i, addr, err))
		}
		linksNew[i] = link
	}

	// Probe the old shards' resident lists before widen: a new holder
	// is seeded warm with what the object's old primary holds now. A
	// shard that fails the probe contributes no warm list — its moving
	// objects arrive cold, a traffic cost, never a correctness problem.
	// The cold baseline (SkipMigration) probes nothing.
	probe := make([]netproto.StatsMsg, from)
	if !spec.SkipMigration {
		var errs []error
		probe, errs = r.probeStats(ctx, rt.links)
		var probeErrs []string
		for i, err := range errs {
			if err != nil {
				probeErrs = append(probeErrs, fmt.Sprintf("shard %d (%s): %v", i, rt.links[i].addr, err))
			}
		}
		if len(probeErrs) > 0 {
			r.cfg.Logf("resize epoch %d: %d probe failures (their moving objects arrive cold): %s",
				epoch, len(probeErrs), strings.Join(probeErrs, "; "))
			r.setStatus(func(st *netproto.RebalanceStatusMsg) {
				st.LastError = "probe: " + strings.Join(probeErrs, "; ")
			})
		}
	}

	// The ownership diff, by address set: with replication an object is
	// held by K shards on each side of the recut, so the diff compares
	// the old and new holder ADDRESS sets rank by address. Every new
	// holder not already warm goes on its warm list when the old primary
	// holds the object resident; an object with any new holder
	// double-routes to the first of them pre-flip, and to a still-warm
	// departing holder post-flip. At K=1 this reduces exactly to the old
	// owner-address comparison. Each transition view's holders are its
	// side's shards, then the other side's that it lacks.
	pre := &routing{epoch: rt.epoch, own: rt.own, links: slices.Clip(rt.links), alt: make(map[model.ObjectID]int)}
	post := &routing{epoch: epoch, own: ownNew, links: slices.Clip(linksNew), alt: make(map[model.ObjectID]int)}
	for _, l := range linksNew {
		if pre.holderAt(l.addr) < 0 {
			pre.links = append(pre.links, l)
		}
	}
	for _, l := range rt.links {
		if post.holderAt(l.addr) < 0 {
			post.links = append(post.links, l)
		}
	}
	warm := make([][]model.ObjectID, to) // by new shard index
	var moved int64
	var movedBytes cost.Bytes
	for _, u := range rt.own.Universe() {
		id := u.ID
		oldRanked, _ := rt.own.Owners(id)
		newRanked, ok := ownNew.Owners(id)
		if !ok || len(oldRanked) == 0 {
			return fail(fmt.Errorf("cluster: object %d lost by resize", id))
		}
		oldAddrs := make(map[string]bool, len(oldRanked))
		for _, s := range oldRanked {
			oldAddrs[rt.links[s].addr] = true
		}
		newAddrs := make(map[string]bool, len(newRanked))
		for _, d := range newRanked {
			newAddrs[linksNew[d].addr] = true
		}
		_, hot := slices.BinarySearch(probe[oldRanked[0]].Cached, id)
		for _, d := range newRanked {
			if oldAddrs[linksNew[d].addr] {
				continue // already warm at some rank
			}
			if _, moving := pre.alt[id]; !moving {
				pre.alt[id] = pre.holderAt(linksNew[d].addr)
			}
			if hot {
				warm[d] = append(warm[d], id)
				moved++
				movedBytes += u.Size
			}
		}
		for _, s := range oldRanked {
			if !newAddrs[rt.links[s].addr] {
				post.alt[id] = post.holderAt(rt.links[s].addr)
				break
			}
		}
	}
	r.cfg.Logf("resize %d→%d (epoch %d): %d objects gaining holders, %d warm arrivals",
		from, to, epoch, len(pre.alt), moved)

	// Phase 1: widen. Every shard of the new config accepts the union
	// of its old and new owned sets, and adopts its warm list, before
	// any routing changes.
	widen := make([]reshardTarget, 0, to)
	for i, link := range linksNew {
		owned := ownNew.ShardObjects(i)
		if old := rt.holderAt(link.addr); old >= 0 {
			owned = unionIDs(owned, rt.own.ShardObjects(old))
		}
		widen = append(widen, reshardTarget{shard: i, link: link, owned: owned, warm: warm[i]})
	}
	if err := r.reshardAll(ctx, epoch, ownNew, widen); err != nil {
		return fail(fmt.Errorf("cluster: widen: %w", err))
	}
	r.setStatus(func(st *netproto.RebalanceStatusMsg) {
		st.MovedObjects = moved
		st.MovedBytes = movedBytes
	})

	// Double-route moving objects until the flip. The result cache
	// clears with every routing snapshot a resize publishes (here, at
	// the flip, and after narrow): cached merged payloads stay bytewise
	// valid across placement changes, but a resize is rare and wholesale
	// invalidation keeps the cache's epoch semantics trivially
	// auditable.
	r.routing.Store(pre)
	r.results.Clear()

	// Phase 2: flip. New queries route to the new owners; the old
	// owners stay warm alternates until narrow completes.
	r.setStatus(func(st *netproto.RebalanceStatusMsg) { st.Phase = "flip" })
	r.routing.Store(post)
	r.results.Clear()

	// Phase 3: narrow continuing shards to exactly their new sets
	// (new shards already are exact — their union had no old half).
	r.setStatus(func(st *netproto.RebalanceStatusMsg) { st.Phase = "narrow" })
	narrow := make([]reshardTarget, 0, to)
	for i, link := range linksNew {
		if rt.holderAt(link.addr) >= 0 { // continuing
			narrow = append(narrow, reshardTarget{shard: i, link: link, owned: ownNew.ShardObjects(i)})
		}
	}
	var narrowErr error
	if err := r.reshardAll(ctx, epoch, ownNew, narrow); err != nil {
		// The flip already happened and wide filters are harmless;
		// report the failure without unwinding the resize.
		narrowErr = fmt.Errorf("cluster: narrow: %w", err)
		r.setStatus(func(st *netproto.RebalanceStatusMsg) { st.LastError = narrowErr.Error() })
	}

	r.routing.Store(&routing{epoch: epoch, own: ownNew, links: linksNew})
	r.results.Clear()
	for _, l := range rt.links {
		if !slices.Contains(spec.Shards, l.addr) {
			r.dropLink(l.addr)
		}
	}
	r.setStatus(func(st *netproto.RebalanceStatusMsg) {
		st.Active = false
		st.Phase = "done"
		st.Completed++
	})
	r.cfg.Logf("resize %d→%d complete (epoch %d)", from, to, epoch)
	return r.RebalanceStatus(), narrowErr
}

// reshardAll swaps the owned sets of several shards concurrently and
// returns the first failure. Each command carries reshardMeta's
// metadata for its owned set.
func (r *Router) reshardAll(ctx context.Context, epoch int, own *core.Ownership, targets []reshardTarget) error {
	links := make([]*shardLink, len(targets))
	for i, t := range targets {
		links[i] = t.link
	}
	replies, errs := fanOut(ctx, links, shardTimeout, func(i int) netproto.Frame {
		t := targets[i]
		return netproto.Frame{
			Type: netproto.MsgReshard,
			Body: netproto.ReshardMsg{
				Epoch:    epoch,
				Owned:    t.owned,
				Universe: reshardMeta(own, t.owned, r.surveyed),
				Warm:     t.warm,
			},
		}
	})
	var first error
	for i, t := range targets {
		if errs[i] != nil {
			first = cmp.Or(first, fmt.Errorf("shard %d (%s): %w", t.shard, t.link.addr, errs[i]))
			continue
		}
		ack, ok := replies[i].Body.(netproto.ReshardMsg)
		if !ok {
			first = cmp.Or(first, fmt.Errorf("shard %d replied %s to reshard", t.shard, replies[i].Type))
			continue
		}
		r.cfg.Logf("shard %d resharded for epoch %d: %d owned, %d warm offered, %d resident, %d dropped",
			t.shard, epoch, len(t.owned), len(t.warm), ack.Resident, ack.Dropped)
	}
	return first
}

// reshardMeta returns the metadata a reshard ships with owned, a
// shard's sorted owned set: every object at universe position surveyed
// or later — births, which a shard that spawned before them has never
// seen — and, as a survey check, the first owned object. Every node
// builds the objects it was started with from its own survey, so
// shipping them would only cap a shard's owned set at what fits in
// netproto.MaxFrame; a shard built from another survey (another seed or
// size) describes the first one otherwise and refuses the reshard.
func reshardMeta(own *core.Ownership, owned []model.ObjectID, surveyed int) []model.Object {
	universe := own.Universe()
	var out []model.Object
	for i, id := range owned {
		if p, ok := own.Pos(id); ok && (i == 0 || p >= surveyed) {
			out = append(out, universe[p])
		}
	}
	return out
}

// unionIDs merges two sorted ID slices, deduplicated.
func unionIDs(a, b []model.ObjectID) []model.ObjectID {
	out := make([]model.ObjectID, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	slices.Sort(out)
	return slices.Compact(out)
}
