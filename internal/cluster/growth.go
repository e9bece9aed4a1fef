// Live universe growth at the routing tier. The paper's repository
// grows while serving: newly published objects (MsgObjectBirth) must
// become routable without a restart or an epoch change. The router
// learns births two ways — a client publishes through it, or the
// repository announces one on the invalidation stream the router
// subscribes to (Config.RepoAddr) — and adoption is the same either
// way:
//
//  1. extend the current routing epoch's ownership (Ownership.Extend
//     places the newborn in the cut that spatially contains it — no
//     existing object moves);
//  2. grant the birth to its owning shards (one MsgBirthGrant per shard
//     per batch), so each admits it into its filter and policy
//     universe — a shard refuses MsgObjectBirth published to it
//     directly, since placement is the router's;
//  3. publish the extended routing snapshot — same epoch, grown
//     universe — so queries touching the newborn route from then on.
//
// The shard is granted ownership before the routing snapshot flips, so
// a query that routes to the newborn never races its adoption. Births
// serialize against live resizes (growMu): a resize in flight finishes
// before a birth extends the final topology, and vice versa, so no
// routing snapshot is ever lost to an interleaved store.
package cluster

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/node"
)

// subscribeInvalidations subscribes the router to the repository's
// invalidation stream: it adopts the births announced there, and an
// update notice evicts every cached result containing the object
// before the next query can be served stale. Shard freshness is the
// shards' own business. A gap turns the result cache off and wipes it;
// the resume wipes it again, poisoning every flight, turns it back on
// and catches up on the births announced during the gap. Called from
// NewRouter.
func (r *Router) subscribeInvalidations() error {
	_, err := r.Subscribe(r.cfg.RepoAddr, netproto.SessionConfig{
		DialRetry: netproto.StartupDialRetry,
	}, node.StreamHandler{
		Frame: func(f netproto.Frame) {
			switch body := f.Body.(type) {
			case netproto.ObjectBirthMsg:
				// Hand the announcement to the batching worker:
				// announcements arriving while an adoption is in flight
				// pile up and adopt as one batch.
				r.enqueueBirths(body.Births, nil)
			case netproto.InvalidateMsg:
				r.results.Invalidate(body.Update.Object)
			}
		},
		Gap: func() { r.results.SetOff(true) },
		Resume: func(*node.Subscription) {
			if err := r.repo.Redial(); err != nil {
				r.cfg.Logf("redial repository: %v", err)
			}
			r.results.SetOff(false)
			// Catch up on the births announced during the gap, through
			// the adoption worker, ahead of what the new stream brings.
			u, err := netproto.FetchUniverse(context.Background(), r.repo)
			if err != nil {
				r.cfg.Logf("catch up on births after the gap: %v", err)
				return
			}
			r.enqueueBirths(u.Births, nil)
		},
	})
	if err != nil {
		return fmt.Errorf("cluster: subscribe invalidations: %w", err)
	}
	return nil
}

// birthReq is one batch of births queued for the adoption worker. A
// nil done is fire-and-forget (the announcement stream); the publish
// path waits on done for the adoption's outcome.
type birthReq struct {
	births []model.Birth
	done   chan error
}

// enqueueBirths hands births to the adoption worker, reporting false
// if the router is shutting down.
func (r *Router) enqueueBirths(births []model.Birth, done chan error) bool {
	select {
	case r.birthCh <- birthReq{births: births, done: done}:
		return true
	case <-r.Done():
		return false
	}
}

// birthWorker serializes birth adoption and batches it for free: each
// iteration drains every request currently queued and adopts the union
// in one adoptBirths call — one ownership extension, one routing
// snapshot, and one grant frame per owning shard, however many births
// the repository announced while the previous round was in flight. An
// idle channel adds no latency (the first request is adopted alone,
// immediately), preserving the adopt-within-one-notification-round-trip
// behavior single births have always had.
func (r *Router) birthWorker() {
	for {
		var reqs []birthReq
		select {
		case <-r.Done():
			return
		case req := <-r.birthCh:
			reqs = append(reqs, req)
		}
	drain:
		for {
			select {
			case req := <-r.birthCh:
				reqs = append(reqs, req)
			default:
				break drain
			}
		}
		var births []model.Birth
		for _, req := range reqs {
			births = append(births, req.births...)
		}
		_, err := r.adoptBirths(context.Background(), births)
		if err != nil {
			r.cfg.Logf("adopt births: %v", err)
		}
		for _, req := range reqs {
			if req.done != nil {
				req.done <- err // buffered; never blocks the worker
			}
		}
	}
}

// adoptBirths makes newly published objects routable: it extends the
// current epoch's ownership, grants the newborns to their owning
// shards, and publishes the grown routing snapshot. Already-known
// births are skipped (adoption is idempotent across the announcement
// stream and the publish path). Returns how many births were new.
func (r *Router) adoptBirths(ctx context.Context, births []model.Birth) (int, error) {
	// Serialize against resizes: an interleaved Resize store would
	// otherwise publish a snapshot computed without these births.
	r.growMu.Lock()
	defer r.growMu.Unlock()

	rt := r.routing.Load()
	fresh := make([]model.Object, 0, len(births))
	freshBirths := make([]model.Birth, 0, len(births))
	seen := make(map[model.ObjectID]struct{}, len(births))
	for _, b := range births {
		if _, known := rt.own.Owner(b.Object.ID); known {
			continue
		}
		// A batched round can carry the same birth twice — the publish
		// path's copy and the announcement stream's — so dedup within
		// the round too, not just against settled ownership.
		if _, dup := seen[b.Object.ID]; dup {
			continue
		}
		seen[b.Object.ID] = struct{}{}
		fresh = append(fresh, b.Object)
		freshBirths = append(freshBirths, b)
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	ownNew, err := rt.own.Extend(fresh)
	if err != nil {
		return 0, fmt.Errorf("cluster: extend ownership: %w", err)
	}

	// Grant each newborn to every shard of its replica set before any
	// query can route there (a failover or hedged read may land on any
	// rank, so all K holders must admit the newborn).
	byShard := make(map[int][]model.Birth)
	for i, o := range fresh {
		ranked, ok := ownNew.Owners(o.ID)
		if !ok {
			return 0, fmt.Errorf("cluster: extended ownership lost object %d", o.ID)
		}
		for _, s := range ranked {
			byShard[s] = append(byShard[s], freshBirths[i])
		}
	}
	shardIdxs := slices.Sorted(maps.Keys(byShard))
	links := make([]*shardLink, len(shardIdxs))
	for i, s := range shardIdxs {
		links[i] = rt.links[s]
	}
	// One batched grant frame per owning shard, shipped in parallel:
	// however many births this round accumulated, each shard costs one
	// round trip (MsgBirthGrant carries the whole batch; the shard
	// admits the births directly, with no repository re-forward — the
	// grant only ever follows the repository's own ack or announcement).
	_, grantErrs := fanOut(ctx, links, shardTimeout, func(i int) netproto.Frame {
		return netproto.Frame{
			Type: netproto.MsgBirthGrant,
			Body: netproto.BirthGrantMsg{Births: byShard[shardIdxs[i]], Epoch: rt.epoch},
		}
	})
	r.grantBatches.Add(int64(len(shardIdxs)))
	var pushErrs []error
	for i, err := range grantErrs {
		if err != nil {
			// The shard missed its grant: queries for the newborn will
			// fail on it until the next reshard re-grants the owned set
			// explicitly. Surface the failure; routing still flips so the
			// rest of the batch serves.
			s := shardIdxs[i]
			r.cfg.Logf("birth grant to shard %d failed: %v", s, err)
			pushErrs = append(pushErrs, fmt.Errorf("shard %d (%s): %w", s, links[i].addr, err))
		}
	}

	// Same epoch, no existing object moved: cached results and scatters
	// in motion stay correct for the object sets they name, so the
	// result cache is left alone (regions re-resolve below).
	r.routing.Store(&routing{epoch: rt.epoch, own: ownNew, links: rt.links, alt: rt.alt})
	r.births.Add(int64(len(fresh)))
	if err := r.covers.Grow(freshBirths); err != nil {
		r.cfg.Logf("region growth: %v (region covers may miss newborns)", err)
	}
	r.cfg.Logf("adopted %d born objects (universe now %d objects, epoch %d)",
		len(fresh), len(ownNew.Universe()), rt.epoch)
	if len(pushErrs) > 0 {
		return len(fresh), fmt.Errorf("cluster: %d birth grant(s) failed: %v", len(pushErrs), pushErrs[0])
	}
	return len(fresh), nil
}

// handleBirths serves a client's MsgObjectBirth publication: ship the
// births to the repository (the source of truth for the growing
// universe), then adopt them into routing synchronously, so the
// publisher can query its newborns the moment the reply lands.
func (r *Router) handleBirths(ctx context.Context, body netproto.ObjectBirthMsg) netproto.Frame {
	reply, err := r.repo.RoundTrip(ctx, netproto.Frame{
		Type: netproto.MsgObjectBirth,
		Body: netproto.ObjectBirthMsg{Births: body.Births},
	})
	if err != nil {
		return netproto.ErrorFrame("cluster: publish births: %v", err)
	}
	ack, ok := reply.Body.(netproto.ObjectBirthMsg)
	if !ok {
		return netproto.ErrorFrame("cluster: repository replied %s to births", reply.Type)
	}
	// Adopt the repository's canonical copies into routing before
	// replying (idempotent against the announcement stream, which may
	// race us here) — through the batching worker, so concurrent
	// publishers coalesce into one ownership extension and one grant
	// frame per shard. A failed adoption — typically an owning shard
	// missing its grant — fails the publish: the reply's contract is
	// "queryable on ack", and an unwarned publisher would see its
	// newborn degrade every query until the next reshard re-grants
	// owned sets explicitly. The births stay ingested at the
	// repository and routing stays deterministic, so the publisher can
	// simply retry or alert.
	done := make(chan error, 1)
	if !r.enqueueBirths(ack.Births, done) {
		return netproto.ErrorFrame("cluster: router is closing")
	}
	select {
	case err := <-done:
		if err != nil {
			return netproto.ErrorFrame("cluster: births published but adoption incomplete: %v", err)
		}
	case <-r.Done():
		return netproto.ErrorFrame("cluster: router is closing")
	}
	return netproto.Frame{Type: netproto.MsgObjectBirth, Body: netproto.ObjectBirthMsg{
		Births:   ack.Births,
		Accepted: ack.Accepted,
	}}
}

// Births reports how many born objects the router has adopted into its
// routing universe since start.
func (r *Router) Births() int64 { return r.births.Value() }
