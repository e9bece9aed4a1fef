package persist

import (
	"fmt"
	"slices"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// State is everything a node persists to rejoin warm: the newest
// routing epoch it resharded for, the object universe it knows beyond
// what its static configuration rebuilds (born objects in full
// fidelity, plus bare metadata that arrived via reshard),
// its owned set when it is a cluster shard, and the resident set its
// policy should re-adopt.
//
// Residency is a warmth hint, not a durability contract: recovery
// re-validates every resident against current ownership and re-offers
// it to a freshly built policy through core.Warmable, which adopts
// only what fits. A stale or slightly wrong resident set therefore
// costs warmth, never correctness — which is what lets journal replay
// treat admissions and evictions as idempotent set operations.
type State struct {
	// Epoch is the newest reshard epoch the state was valid for; a
	// restarted shard resumes rejecting superseded reshard frames from
	// here.
	Epoch int
	// Universe holds object metadata the node cannot rebuild from its
	// static configuration: born objects plus reshard arrivals. Base-partition objects need not appear (they are
	// derived from the survey seed), but including them is harmless —
	// recovery merges by ID.
	Universe []model.Object
	// Births are the adopted object births in publication order, full
	// fidelity (sky position and publication time), so a resolver or a
	// repository catalog can replay them through AddObject.
	Births []model.Birth
	// Owned is the owned object set, nil when the node owns everything
	// (standalone cache or repository).
	Owned []model.ObjectID
	// Resident is the resident set at snapshot time.
	Resident []model.ObjectID

	// generation is the snapshot generation this state was decoded
	// from; Recover uses it to pair the journal with its snapshot.
	generation uint64
}

// Clone returns a deep copy (recovery hands the state to callers that
// mutate it while the store keeps its own copy for compaction).
func (st *State) Clone() *State {
	if st == nil {
		return nil
	}
	return &State{
		Epoch:    st.Epoch,
		Universe: slices.Clone(st.Universe),
		Births:   slices.Clone(st.Births),
		Owned:    slices.Clone(st.Owned),
		Resident: slices.Clone(st.Resident),
	}
}

func encObject(e *enc, o *model.Object) {
	e.varint(int64(o.ID))
	e.varint(int64(o.Size))
	e.uvarint(o.Trixel)
}

func decObject(d *dec) model.Object {
	return model.Object{
		ID:     model.ObjectID(d.varint()),
		Size:   cost.Bytes(d.varint()),
		Trixel: d.uvarint(),
	}
}

func encBirth(e *enc, b *model.Birth) {
	encObject(e, &b.Object)
	e.f64(b.RA)
	e.f64(b.Dec)
	e.varint(int64(b.Time))
}

func decBirth(d *dec) model.Birth {
	return model.Birth{
		Object: decObject(d),
		RA:     d.f64(),
		Dec:    d.f64(),
		Time:   time.Duration(d.varint()),
	}
}

func encIDs(e *enc, ids []model.ObjectID) {
	e.uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.varint(int64(id))
	}
}

func decIDs(d *dec) []model.ObjectID {
	n := d.length(1)
	if n == 0 {
		return nil
	}
	ids := make([]model.ObjectID, n)
	for i := range ids {
		ids[i] = model.ObjectID(d.varint())
	}
	return ids
}

// encodeState renders a State as a recSnapshot payload.
func encodeState(st *State) []byte {
	e := &enc{b: make([]byte, 0, 64+16*(len(st.Universe)+len(st.Births))+8*(len(st.Owned)+len(st.Resident)))}
	e.uvarint(uint64(st.Epoch))
	e.uvarint(uint64(len(st.Universe)))
	for i := range st.Universe {
		encObject(e, &st.Universe[i])
	}
	e.uvarint(uint64(len(st.Births)))
	for i := range st.Births {
		encBirth(e, &st.Births[i])
	}
	e.boolean(st.Owned != nil)
	encIDs(e, st.Owned)
	encIDs(e, st.Resident)
	return e.b
}

// decodeState parses a recSnapshot payload.
func decodeState(payload []byte) (*State, error) {
	d := &dec{b: payload}
	st := &State{Epoch: int(d.uvarint())}
	if n := d.length(3); n > 0 {
		st.Universe = make([]model.Object, n)
		for i := range st.Universe {
			st.Universe[i] = decObject(d)
		}
	}
	if n := d.length(19); n > 0 {
		st.Births = make([]model.Birth, n)
		for i := range st.Births {
			st.Births[i] = decBirth(d)
		}
	}
	hasOwned := d.boolean()
	owned := decIDs(d)
	if hasOwned {
		if owned == nil {
			owned = []model.ObjectID{}
		}
		st.Owned = owned
	}
	st.Resident = decIDs(d)
	if d.err != nil {
		return nil, d.err
	}
	return st, nil
}

// apply folds one journal record into the state. Admissions and
// evictions are idempotent set operations and births dedup by ID (see
// the State doc for why that tolerance is sound here).
func (st *State) apply(typ byte, payload []byte) error {
	d := &dec{b: payload}
	switch typ {
	case recBirth:
		b := decBirth(d)
		if d.err != nil {
			return d.err
		}
		for _, known := range st.Births {
			if known.Object.ID == b.Object.ID {
				return nil
			}
		}
		st.Births = append(st.Births, b)
		if !slices.ContainsFunc(st.Universe, func(o model.Object) bool { return o.ID == b.Object.ID }) {
			st.Universe = append(st.Universe, b.Object)
		}
		if st.Owned != nil && !slices.Contains(st.Owned, b.Object.ID) {
			st.Owned = append(st.Owned, b.Object.ID)
		}
	case recAdmit:
		id := model.ObjectID(d.varint())
		if d.err != nil {
			return d.err
		}
		if !slices.Contains(st.Resident, id) {
			st.Resident = append(st.Resident, id)
		}
	case recEvict:
		id := model.ObjectID(d.varint())
		if d.err != nil {
			return d.err
		}
		if i := slices.Index(st.Resident, id); i >= 0 {
			st.Resident = slices.Delete(st.Resident, i, i+1)
		}
	default:
		// An unknown record type is indistinguishable from corruption;
		// treat it as the end of the clean prefix.
		return fmt.Errorf("persist: unknown journal record type %d", typ)
	}
	return nil
}
