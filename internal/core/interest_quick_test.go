package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/deltacache/delta/internal/model"
)

// streamModel is one invalidation stream as the repository runs it:
// registrations travel up and are installed in order, and the
// repository's frames — notices that pass its interest set, and the
// echo of each registration — travel down in FIFO order.
type streamModel struct {
	set  map[model.ObjectID]bool // starts empty
	up   [][]model.ObjectID      // registrations not yet installed
	down []streamFrame
}

func newStreamModel() streamModel { return streamModel{set: map[model.ObjectID]bool{}} }

type streamFrame struct {
	echo   bool
	notice int // index into the trial's applied updates
}

// TestQuickInterestMatchesFIFOStream drives Interest against a model of
// the stream over random interleavings of registrations, sends,
// installs, updates, deliveries and gaps, with at most one batch in
// flight as the node's pump keeps it. Two properties hold: no object is
// reported confirmed before the echo of a batch naming it has been
// delivered on the current stream, and every update applied while its
// object is confirmed reaches the subscriber, unless a gap cuts the
// stream first.
func TestQuickInterestMatchesFIFOStream(t *testing.T) {
	const objects = 12
	var confirmedUpdates, withheld int
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := NewInterest()
		var (
			s        = newStreamModel()
			echoed   = map[model.ObjectID]bool{} // echo delivered on this stream
			inFlight bool
			flightAt uint64
			// mustArrive[i] is set when update i was applied while its
			// object was confirmed; arrived[i] when it was delivered.
			mustArrive, arrived []bool
			applied             []model.ObjectID
		)
		deliver := func() {
			f := s.down[0]
			s.down = s.down[1:]
			if !f.echo {
				arrived[f.notice] = true
				return
			}
			if !inFlight {
				t.Fatalf("seed %d: an echo with no batch in flight", seed)
			}
			in.Echoed(flightAt)
			inFlight = false
		}
		install := func() {
			batch := s.up[0]
			s.up = s.up[1:]
			for _, id := range batch {
				s.set[id] = true
			}
			s.down = append(s.down, streamFrame{echo: true})
		}
		var inTransit [][]model.ObjectID // batches sent, echo not delivered
		for range 60 + rng.Intn(60) {
			switch k := rng.Intn(12); {
			case k < 3:
				ids := make([]model.ObjectID, 1+rng.Intn(3))
				for i := range ids {
					ids[i] = model.ObjectID(1 + rng.Intn(objects))
				}
				in.Want(ids)
			case k < 5:
				if batch, gen, ok := in.Next(); ok {
					if inFlight {
						t.Logf("seed %d: Next handed out a second batch in flight", seed)
						return false
					}
					inFlight, flightAt = true, gen
					s.up = append(s.up, slices.Clone(batch.Want))
					inTransit = append(inTransit, slices.Clone(batch.Want))
				}
			case k < 6 && len(s.up) > 0:
				install()
			case k < 9:
				obj := model.ObjectID(1 + rng.Intn(objects))
				applied = append(applied, obj)
				mustArrive = append(mustArrive, in.Confirmed([]model.ObjectID{obj}))
				arrived = append(arrived, false)
				if s.set[obj] {
					s.down = append(s.down, streamFrame{notice: len(applied) - 1})
				} else {
					withheld++
				}
			case k < 11 && len(s.down) > 0:
				if s.down[0].echo {
					for _, id := range inTransit[0] {
						echoed[id] = true
					}
					inTransit = inTransit[1:]
				}
				deliver()
			case k == 11:
				// A gap: the stream and everything on it are gone; the
				// batch in flight will never be echoed.
				for i := range mustArrive {
					if !arrived[i] {
						mustArrive[i] = false
					}
				}
				if inFlight {
					in.Lost(flightAt)
					inFlight = false
				}
				in.Reset()
				s, echoed, inTransit = newStreamModel(), map[model.ObjectID]bool{}, nil
			}
			for id := model.ObjectID(1); id <= objects; id++ {
				if in.Confirmed([]model.ObjectID{id}) && !echoed[id] {
					t.Logf("seed %d: object %d confirmed before its echo", seed, id)
					return false
				}
			}
		}
		// Drain the stream: every frame on it arrives.
		for len(s.up) > 0 || len(s.down) > 0 {
			for len(s.up) > 0 {
				install()
			}
			for len(s.down) > 0 {
				if s.down[0].echo {
					inTransit = inTransit[1:]
				}
				deliver()
			}
		}
		for i, must := range mustArrive {
			if must {
				confirmedUpdates++
				if !arrived[i] {
					t.Logf("seed %d: update %d on confirmed object %d never arrived", seed, i, applied[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if confirmedUpdates == 0 || withheld == 0 {
		t.Errorf("the trials exercised too little: %d updates on confirmed objects, %d withheld", confirmedUpdates, withheld)
	}
}

// TestInterestBatchesAndResets pins the bookkeeping around one batch:
// registrations made while a batch is in flight wait for the next one,
// a lost batch goes out again, and a batch that settles after a Reset
// confirms nothing.
func TestInterestBatchesAndResets(t *testing.T) {
	in := NewInterest()
	if in.Want([]model.ObjectID{1, 2}) {
		t.Fatal("nothing was confirmed yet")
	}
	b1, g1, ok := in.Next()
	if !ok || !slices.Equal(b1.Want, []model.ObjectID{1, 2}) {
		t.Fatalf("first batch %v %v", b1, ok)
	}
	in.Want([]model.ObjectID{2, 3})
	if _, _, ok := in.Next(); ok {
		t.Fatal("a second batch went out while one is in flight")
	}
	in.Lost(g1)
	b2, g2, _ := in.Next()
	if !slices.Equal(b2.Want, []model.ObjectID{1, 2, 3}) {
		t.Fatalf("after a lost batch: %v, want 1 2 3", b2)
	}
	in.Echoed(g2)
	if !in.Want([]model.ObjectID{3, 1}) {
		t.Fatal("echoed objects are not confirmed")
	}
	in.Want([]model.ObjectID{4})
	_, g3, _ := in.Next()
	in.Reset()
	in.Echoed(g3)
	if in.Confirmed([]model.ObjectID{1}) || in.Confirmed([]model.ObjectID{4}) {
		t.Fatal("a Reset kept confirmations, or a stale echo confirmed")
	}
	if _, _, ok := in.Next(); ok {
		t.Fatal("a Reset kept pending registrations")
	}
}

// TestQuickInterestDrops drives Interest through random sequences of
// Want, Drop, Next, Echoed, Lost, Reset and loads (Load, Loaded)
// against a model of the repository's interest set, which installs each
// batch handed out in order: its registrations join the set and its
// drops leave it. A load's registration joins the set when the
// repository serves it, before its reply, in any order against the
// batches; a load of an earlier generation names a stream that is gone
// and changes nothing. A lost batch may or may not have been installed,
// and so may a failed load, which unregisters only the objects it made
// wanted: one wanted before it, or again while it was in flight, keeps
// its registration. Six properties hold after every step: every
// confirmed object is in the set; once a batch carrying an object's
// drop is echoed, the object is not in the set unless it was wanted or
// loaded again since that drop; an object that Dropped reports settled
// and that was not wanted or loaded again since its last drop is not in
// the set; no batch both registers and drops an object, so a drop that
// meets a registration in flight goes out in a later batch; no batch
// drops an object the caller still wants; and a drop of an object is
// never on the wire beside a load of it, so no drop can remove the
// registration of a later load.
func TestQuickInterestDrops(t *testing.T) {
	const objects = 10
	var drops, narrowedChecks, droppedChecks, loaded, refused, kept int
	type load struct {
		ids             []model.ObjectID
		made            map[model.ObjectID]bool // not wanted before the load
		gen             uint64
		installed, dead bool
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := NewInterest()
		var (
			set      = map[model.ObjectID]bool{}
			flight   Batch
			busy     bool
			flightAt uint64
			// wanted[id] is set by a Want or a Load of id and cleared by a
			// Drop of it, a gap, or a failed load of this generation that
			// made it wanted; again[id] likewise, but a gap keeps it;
			// narrowed[id] once a drop of id is echoed with no Want or
			// Load since.
			wanted   = map[model.ObjectID]bool{}
			again    = map[model.ObjectID]bool{}
			narrowed = map[model.ObjectID]bool{}
			dropped  = map[model.ObjectID]bool{} // unregistered at least once
			transit  []*load                     // loads sent, not yet settled
		)
		ids := func() []model.ObjectID {
			out := make([]model.ObjectID, 1+rng.Intn(3))
			for i := range out {
				out[i] = model.ObjectID(1 + rng.Intn(objects))
			}
			return out
		}
		loading := func(id model.ObjectID) bool {
			return slices.ContainsFunc(transit, func(l *load) bool { return !l.dead && slices.Contains(l.ids, id) })
		}
		dropInFlight := func(id model.ObjectID) bool { return busy && slices.Contains(flight.Drop, id) }
		// want and drop are the model's Want and Drop: either takes id
		// from the loads that made it wanted.
		want := func(id model.ObjectID) {
			wanted[id], again[id], narrowed[id] = true, true, false
			for _, l := range transit {
				delete(l.made, id)
			}
		}
		drop := func(id model.ObjectID) {
			wanted[id], again[id], dropped[id] = false, false, true
			for _, l := range transit {
				delete(l.made, id)
			}
		}
		// startLoad readies a load of l, as far as in.Load takes it; it
		// reports false when Load refused it.
		startLoad := func(step int, l []model.ObjectID) (*load, bool) {
			blocked := slices.ContainsFunc(l, dropInFlight)
			if !in.Load(l) {
				if !blocked {
					t.Fatalf("seed %d step %d: a load of %v refused with no drop of it in flight", seed, step, l)
				}
				refused++
				return nil, false
			}
			if blocked {
				t.Fatalf("seed %d step %d: a load of %v went out beside a drop of it in flight", seed, step, l)
			}
			ld := &load{ids: l, made: map[model.ObjectID]bool{}, gen: in.Gen()}
			for _, id := range l {
				if !wanted[id] {
					ld.made[id] = true
				}
				wanted[id], again[id], narrowed[id] = true, true, false
			}
			return ld, true
		}
		// settle settles l, which has left transit.
		settle := func(l *load, ok bool) {
			in.Loaded(l.gen, l.ids, ok)
			if !ok && !l.dead {
				for id := range l.made {
					drop(id)
				}
			}
			loaded++
		}
		// fresh draws objects none of which is being loaded: the node's
		// singleflight keeps one load per object.
		fresh := func() ([]model.ObjectID, bool) {
			l := ids()
			slices.Sort(l)
			l = slices.Compact(l)
			return l, !slices.ContainsFunc(transit, func(t *load) bool {
				return slices.ContainsFunc(t.ids, func(id model.ObjectID) bool { return slices.Contains(l, id) })
			})
		}
		install := func(b Batch) {
			for _, id := range b.Want {
				set[id] = true
			}
			for _, id := range b.Drop {
				delete(set, id)
			}
		}
		installLoad := func(l *load) {
			if !l.dead {
				for _, id := range l.ids {
					set[id] = true
				}
			}
			l.installed = true
		}
		for step := range 80 + rng.Intn(80) {
			switch k := rng.Intn(16); {
			case k < 3:
				w := ids()
				in.Want(w)
				for _, id := range w {
					want(id)
				}
			case k < 5:
				d := ids()
				in.Drop(d)
				for _, id := range d {
					drop(id)
				}
				drops++
			case k < 8:
				b, gen, ok := in.Next()
				if !ok {
					break
				}
				if busy {
					t.Logf("seed %d step %d: Next handed out a second batch in flight", seed, step)
					return false
				}
				for _, id := range b.Want {
					if slices.Contains(b.Drop, id) {
						t.Logf("seed %d step %d: batch %+v registers and drops %d", seed, step, b, id)
						return false
					}
				}
				for _, id := range b.Drop {
					if loading(id) {
						t.Logf("seed %d step %d: batch %+v drops %d while a load of it is on the wire", seed, step, b, id)
						return false
					}
					if wanted[id] {
						t.Logf("seed %d step %d: batch %+v drops %d, which is still wanted", seed, step, b, id)
						return false
					}
				}
				flight = Batch{Want: slices.Clone(b.Want), Drop: slices.Clone(b.Drop)}
				busy, flightAt = true, gen
			case k < 10 && busy:
				install(flight)
				in.Echoed(flightAt)
				for _, id := range flight.Drop {
					if !again[id] {
						narrowed[id] = true
					}
				}
				busy = false
			case k < 11 && busy:
				if rng.Intn(2) == 0 {
					install(flight)
				}
				in.Lost(flightAt)
				busy = false
			case k == 11:
				// A gap: a new stream starts with nothing registered, a
				// batch in flight is never echoed, and a load in flight
				// names the stream that is gone.
				in.Reset()
				set, narrowed, busy = map[model.ObjectID]bool{}, map[model.ObjectID]bool{}, false
				wanted = map[model.ObjectID]bool{}
				for _, l := range transit {
					l.dead = true
				}
			case k == 12:
				if l, ok := fresh(); ok {
					if ld, ok := startLoad(step, l); ok {
						transit = append(transit, ld)
					}
				}
			case k == 13 && len(transit) > 0:
				if l := transit[rng.Intn(len(transit))]; !l.installed {
					installLoad(l)
				}
			case k == 14 && len(transit) > 0:
				i := rng.Intn(len(transit))
				l := transit[i]
				transit = slices.Delete(transit, i, i+1)
				ok := l.installed && rng.Intn(4) > 0
				if !ok && !l.installed && rng.Intn(2) == 0 {
					installLoad(l) // served, but the reply was lost
				}
				settle(l, ok)
			case k == 15:
				// A load of objects already wanted — an unscoped node's
				// owned ones — that fails: they stay registered.
				l, ok := fresh()
				if !ok {
					break
				}
				in.Want(l)
				for _, id := range l {
					want(id)
				}
				if ld, ok := startLoad(step, l); ok {
					if rng.Intn(2) == 0 {
						installLoad(ld)
					}
					settle(ld, false)
					kept++
				}
			}
			for id := model.ObjectID(1); id <= objects; id++ {
				if in.Confirmed([]model.ObjectID{id}) && !set[id] {
					t.Logf("seed %d step %d: object %d confirmed but not in the repository's set", seed, step, id)
					return false
				}
				if narrowed[id] {
					narrowedChecks++
					if set[id] {
						t.Logf("seed %d step %d: object %d still in the set after its drop was echoed", seed, step, id)
						return false
					}
				}
				if dropped[id] && !again[id] && in.Dropped([]model.ObjectID{id}) {
					droppedChecks++
					if set[id] {
						t.Logf("seed %d step %d: object %d reported dropped but still in the set", seed, step, id)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if drops == 0 || narrowedChecks == 0 || droppedChecks == 0 || loaded == 0 || refused == 0 || kept == 0 {
		t.Errorf("the trials exercised too little: %d drops, %d checks after an echoed drop, %d after Dropped, %d loads settled, %d refused, %d failed over wanted objects",
			drops, narrowedChecks, droppedChecks, loaded, refused, kept)
	}
}

// TestInterestDropOrdersAfterFlight pins the ordering of a drop against
// a registration: one still pending is withdrawn, one in flight is
// followed by the drop in the next batch, and a drop pending when its
// object is wanted again is withdrawn.
func TestInterestDropOrdersAfterFlight(t *testing.T) {
	in := NewInterest()
	in.Want([]model.ObjectID{1, 2})
	in.Drop([]model.ObjectID{2})
	b1, g1, _ := in.Next()
	if !slices.Equal(b1.Want, []model.ObjectID{1}) {
		t.Fatalf("first batch registers %v, want 1: the pending registration of 2 was dropped", b1.Want)
	}
	in.Drop([]model.ObjectID{1})
	if _, _, ok := in.Next(); ok {
		t.Fatal("a drop went out beside the registration it follows")
	}
	in.Echoed(g1)
	if in.Confirmed([]model.ObjectID{1}) {
		t.Fatal("an object dropped while its registration was in flight was confirmed")
	}
	b2, g2, _ := in.Next()
	if !slices.Contains(b2.Drop, 1) || len(b2.Want) != 0 {
		t.Fatalf("second batch %+v, want the drop of 1", b2)
	}
	in.Echoed(g2)
	in.Want([]model.ObjectID{3})
	b3, g3, _ := in.Next()
	in.Echoed(g3)
	if !slices.Equal(b3.Want, []model.ObjectID{3}) || !in.Confirmed([]model.ObjectID{3}) {
		t.Fatalf("third batch %+v", b3)
	}
	in.Drop([]model.ObjectID{3})
	in.Want([]model.ObjectID{3})
	b4, _, _ := in.Next()
	if len(b4.Drop) != 0 || !slices.Equal(b4.Want, []model.ObjectID{3}) {
		t.Fatalf("a drop and a later registration of 3 sent %+v, want the registration alone", b4)
	}
}
