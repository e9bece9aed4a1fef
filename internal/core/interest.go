package core

import (
	"slices"

	"github.com/deltacache/delta/internal/model"
)

// ScopedNotices marks a policy that needs the notices of only the
// objects it holds: its OnUpdate on any other object is an empty
// decision that changes no state (VCover, NoCache). Its node then
// registers interest in the objects it may come to hold, and the
// repository withholds every other notice. A policy without the marker
// — Benefit and Replica learn from every owned notice, and a decorator
// that forwards only the core contract hides it — keeps the unfiltered
// stream on a standalone node, and on a cluster shard registers its
// whole owned set.
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
// The caller serializes calls.
type Interest struct {
	wanted    *idSet // pending, in flight or confirmed
	confirmed *idSet
	next      Batch // pending
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
func NewInterest() *Interest {
	return &Interest{wanted: newIDSet(0), confirmed: newIDSet(0)}
}

// Want registers every id not yet registered and reports whether every
// one is confirmed. A pending drop of a re-registered id is withdrawn.
func (in *Interest) Want(ids []model.ObjectID) bool {
	all := true
	for _, id := range ids {
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
// its drop goes out with the next batch. A pending registration of the
// same id is withdrawn with it.
func (in *Interest) Drop(ids []model.ObjectID) {
	for _, id := range ids {
		if !in.wanted.has(id) {
			continue
		}
		in.wanted.remove(id)
		in.confirmed.remove(id)
		in.next.Drop = append(in.next.Drop, id)
	}
	in.next.Want = slices.DeleteFunc(in.next.Want, func(id model.ObjectID) bool { return !in.wanted.has(id) })
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

// Reset forgets every registration and starts a new generation.
func (in *Interest) Reset() {
	*in = Interest{wanted: newIDSet(0), confirmed: newIDSet(0), gen: in.gen + 1}
}

// Gen is the generation registrations are made in; Reset moves it on.
func (in *Interest) Gen() uint64 { return in.gen }
