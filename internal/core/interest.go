package core

import "github.com/deltacache/delta/internal/model"

// ScopedNotices marks a policy that needs the notices of only the
// objects it holds: its OnUpdate on any other object is an empty
// decision that changes no state (VCover, NoCache). Its node then
// registers interest in the objects it may come to hold, and the
// repository withholds every other notice. A policy without the marker
// — Benefit and Replica learn from every owned notice, and a decorator
// that forwards only the core contract hides it — keeps the unfiltered
// stream.
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
// Want registers objects; Next hands out the pending ones as one batch
// once none is in flight, so registrations made while a frame is on the
// wire travel together; Echoed and Lost settle the batch in flight.
// Reset forgets everything: the registrations were the stream's, and a
// new stream carries every notice until its first one. Batches carry the
// generation they were handed out in, so one that settles after a Reset
// confirms nothing. The caller serializes calls.
type Interest struct {
	wanted    *idSet // pending, in flight or confirmed
	confirmed *idSet
	pending   []model.ObjectID
	flight    []model.ObjectID // nil when no batch is in flight
	gen       uint64
}

// NewInterest returns an interest with nothing registered.
func NewInterest() *Interest {
	return &Interest{wanted: newIDSet(0), confirmed: newIDSet(0)}
}

// Want registers every id not yet registered and reports whether every
// one is confirmed.
func (in *Interest) Want(ids []model.ObjectID) bool {
	all := true
	for _, id := range ids {
		if in.confirmed.has(id) {
			continue
		}
		all = false
		if !in.wanted.has(id) {
			in.wanted.add(id)
			in.pending = append(in.pending, id)
		}
	}
	return all
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

// Next hands out every pending registration as the batch to send, and
// the generation to settle it with, unless a batch is in flight or
// nothing is pending.
func (in *Interest) Next() (batch []model.ObjectID, gen uint64, ok bool) {
	if in.flight != nil || len(in.pending) == 0 {
		return nil, 0, false
	}
	in.flight, in.pending = in.pending, nil
	return in.flight, in.gen, true
}

// Echoed confirms the batch in flight of generation gen.
func (in *Interest) Echoed(gen uint64) {
	if gen != in.gen || in.flight == nil {
		return
	}
	for _, id := range in.flight {
		in.confirmed.add(id)
	}
	in.flight = nil
}

// Lost puts the batch in flight of generation gen back in front of the
// pending ones: it was not echoed, and may not have been sent.
func (in *Interest) Lost(gen uint64) {
	if gen != in.gen || in.flight == nil {
		return
	}
	in.pending = append(in.flight, in.pending...)
	in.flight = nil
}

// Reset forgets every registration and starts a new generation.
func (in *Interest) Reset() {
	*in = Interest{wanted: newIDSet(0), confirmed: newIDSet(0), gen: in.gen + 1}
}

// Gen is the generation registrations are made in; Reset moves it on.
func (in *Interest) Gen() uint64 { return in.gen }
