package core

import (
	"slices"

	"github.com/deltacache/delta/internal/model"
)

// ScopedNotices marks a policy that needs the notices of only the
// objects it holds: its OnUpdate on any other object is an empty
// decision that changes no state (VCover, NoCache). Its node registers
// each object as it loads it and unregisters it as it evicts it, so the
// repository withholds the notices of every object that is not
// resident. A policy without the marker — Benefit and Replica learn from
// every owned notice, and a decorator that forwards only the core
// contract hides it — registers its whole owned set: a standalone
// node's universe, a cluster shard's share of it.
type ScopedNotices interface {
	ScopedNotices()
}

// Interest is one invalidation subscriber's registrations, with no I/O.
// The repository echoes each registration frame in-stream, and the
// stream is FIFO: once the echo is back, every notice on a registered
// object reaches the subscriber, and a notice the repository withheld
// would have arrived before it. So an object is confirmed only by its
// echo, and a node takes no decision on an object that needs its
// notices before then.
//
// Want registers objects and Drop unregisters them; Next hands out the
// pending ones as one batch once none is in flight, so changes made
// while a frame is on the wire travel together; Echoed and Lost settle
// the batch in flight. A batch's registrations and drops are disjoint,
// so the order the repository applies them in does not matter, and a
// drop of an object whose registration is in flight waits for the next
// batch. Reset forgets everything: the registrations were the stream's,
// and a new stream starts over. Batches carry the generation they were
// handed out in, so one that settles after a Reset confirms nothing.
//
// A load registers its objects too: the repository installs them before
// it serves the load, so the reply is the echo (Load, Loaded). A load
// that fails unregisters only what it made wanted: an object registered
// before it, or again while it was in flight, stays registered. A load
// and a drop of one object travel on different connections, so neither
// may be on the wire while the other could still overtake it: a load
// waits out a drop in flight and withdraws a pending one, and a drop
// of an object whose load is in flight is queued when the load settles.
// The caller serializes calls.
type Interest struct {
	wanted    *idSet // pending, in flight (a batch or a load) or confirmed
	confirmed *idSet
	loading   *idSet // named by a load in flight
	claimed   *idSet // wanted only because a load in flight named it
	next      Batch  // pending
	flight    Batch
	busy      bool // a batch is in flight
	gen       uint64
}

// Batch is one registration frame: the objects it registers and the
// ones it drops.
type Batch struct {
	Want, Drop []model.ObjectID
}

// NewInterest returns an interest with nothing registered.
func NewInterest() *Interest { return newInterest(0) }

func newInterest(gen uint64) *Interest {
	return &Interest{wanted: newIDSet(0), confirmed: newIDSet(0), loading: newIDSet(0), claimed: newIDSet(0), gen: gen}
}

// Want registers every id not yet registered, or registered only by a
// load in flight, and reports whether every one is confirmed. A pending
// drop of a re-registered id is withdrawn.
func (in *Interest) Want(ids []model.ObjectID) bool {
	all := true
	for _, id := range ids {
		if in.claimed.has(id) {
			// It now stays registered whatever the load's outcome.
			in.claimed.remove(id)
			if !in.confirmed.has(id) {
				in.next.Want = append(in.next.Want, id)
			}
		}
		if in.confirmed.has(id) {
			continue
		}
		all = false
		if in.wanted.has(id) {
			continue
		}
		in.wanted.add(id)
		in.next.Want = append(in.next.Want, id)
		if len(in.next.Drop) > 0 {
			in.next.Drop = slices.DeleteFunc(in.next.Drop, func(d model.ObjectID) bool { return d == id })
		}
	}
	return all
}

// Drop unregisters every registered id: it is no longer confirmed, and
// its drop goes out with the next batch, or once its load settles. A
// pending registration of the same id is withdrawn with it.
func (in *Interest) Drop(ids []model.ObjectID) {
	for _, id := range ids {
		if in.wanted.has(id) {
			in.unwant(id)
		}
	}
	in.next.Want = slices.DeleteFunc(in.next.Want, func(id model.ObjectID) bool { return !in.wanted.has(id) })
}

// unwant unregisters a wanted id, queueing its drop unless a load of it
// is in flight.
func (in *Interest) unwant(id model.ObjectID) {
	in.wanted.remove(id)
	in.confirmed.remove(id)
	in.claimed.remove(id)
	if !in.loading.has(id) {
		in.next.Drop = append(in.next.Drop, id)
	}
}

// Load readies a load that registers ids as the repository serves it,
// and reports false, changing nothing, while a drop of any of them is
// in flight: the caller waits for that batch to settle, or the drop
// could be installed after the load's registration and undo it.
// Otherwise a pending drop of each id is withdrawn, and each stays
// wanted, unconfirmed unless it already was, until Loaded; the load
// claims those it made wanted. The caller loads an id at most once at
// a time.
func (in *Interest) Load(ids []model.ObjectID) bool {
	if in.busy && slices.ContainsFunc(in.flight.Drop, func(id model.ObjectID) bool { return slices.Contains(ids, id) }) {
		return false
	}
	for _, id := range ids {
		if !in.wanted.has(id) {
			in.wanted.add(id)
			in.claimed.add(id)
		}
		in.loading.add(id)
	}
	if len(in.next.Drop) > 0 {
		in.next.Drop = slices.DeleteFunc(in.next.Drop, in.loading.has)
	}
	return true
}

// Loaded settles a load readied in generation gen. When ok, the
// repository served it, so its registration is in force, and every id
// still wanted is confirmed. An id dropped while the load was in flight
// has its drop queued now, behind the registration; so has every id a
// failed load claimed, since it may or may not have registered it. An
// id the failed load found wanted stays as it was. A load of an earlier
// generation settles nothing: its stream is gone.
func (in *Interest) Loaded(gen uint64, ids []model.ObjectID, ok bool) {
	if gen != in.gen {
		return
	}
	for _, id := range ids {
		if !in.loading.has(id) {
			continue
		}
		in.loading.remove(id)
		switch {
		case !in.wanted.has(id):
			in.next.Drop = append(in.next.Drop, id)
		case ok:
			in.confirmed.add(id)
		case in.claimed.has(id):
			in.unwant(id)
		}
		in.claimed.remove(id)
	}
	in.next.Want = slices.DeleteFunc(in.next.Want, func(id model.ObjectID) bool { return !in.wanted.has(id) })
}

// Dropped reports whether every drop of ids queued so far has been
// echoed: none is pending, in flight or waiting for its load to settle.
func (in *Interest) Dropped(ids []model.ObjectID) bool {
	named := newIDSet(len(ids))
	for _, id := range ids {
		named.add(id)
	}
	awaitsLoad := func(id model.ObjectID) bool { return in.loading.has(id) && !in.wanted.has(id) }
	return !slices.ContainsFunc(ids, awaitsLoad) && !slices.ContainsFunc(in.next.Drop, named.has) &&
		!(in.busy && slices.ContainsFunc(in.flight.Drop, named.has))
}

// Confirmed reports whether every id's registration has been echoed.
func (in *Interest) Confirmed(ids []model.ObjectID) bool {
	for _, id := range ids {
		if !in.confirmed.has(id) {
			return false
		}
	}
	return true
}

// Next hands out every pending registration and drop as the batch to
// send, and the generation to settle it with, unless a batch is in
// flight or nothing is pending.
func (in *Interest) Next() (Batch, uint64, bool) {
	if in.busy || len(in.next.Want)+len(in.next.Drop) == 0 {
		return Batch{}, 0, false
	}
	in.flight, in.next, in.busy = in.next, Batch{}, true
	return in.flight, in.gen, true
}

// Echoed confirms the registrations of the batch in flight of
// generation gen that are still wanted.
func (in *Interest) Echoed(gen uint64) {
	if gen != in.gen || !in.busy {
		return
	}
	for _, id := range in.flight.Want {
		if in.wanted.has(id) {
			in.confirmed.add(id)
		}
	}
	in.flight, in.busy = Batch{}, false
}

// Lost puts the batch in flight of generation gen back in front of the
// pending changes, as far as they still hold: it was not echoed, and
// may not have been sent.
func (in *Interest) Lost(gen uint64) {
	if gen != in.gen || !in.busy {
		return
	}
	want := slices.DeleteFunc(in.flight.Want, func(id model.ObjectID) bool { return !in.wanted.has(id) })
	drop := slices.DeleteFunc(in.flight.Drop, in.wanted.has)
	in.next = Batch{Want: append(want, in.next.Want...), Drop: append(drop, in.next.Drop...)}
	in.flight, in.busy = Batch{}, false
}

// Reset forgets every registration and load and starts a new
// generation.
func (in *Interest) Reset() { *in = *newInterest(in.gen + 1) }

// Gen is the generation registrations are made in; Reset moves it on.
func (in *Interest) Gen() uint64 { return in.gen }
