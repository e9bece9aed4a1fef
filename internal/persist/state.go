package persist

import (
	"fmt"
	"slices"

	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// State is everything a node persists to rejoin warm: the newest
// routing epoch it resharded for, the object universe it knows beyond
// what its static configuration rebuilds (born objects in full
// fidelity, plus bare metadata that arrived via reshard),
// its owned set when it is a cluster shard, and the resident set its
// policy should re-adopt. A restarting cache reads neither the epoch
// nor the owned set: its router's next reshard supplies both.
//
// Residency is a warmth hint, not a durability contract: recovery
// re-offers every resident the node still owns to a freshly built
// policy through core.Warmable, which adopts only what fits. A stale or slightly wrong resident set therefore
// costs warmth, never correctness — which is what lets journal replay
// treat admissions and evictions as idempotent set operations.
type State struct {
	// Epoch is the newest reshard epoch the state was valid for.
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

// encodeState renders a State as a recSnapshot payload.
func encodeState(st *State) []byte {
	e := netproto.NewEncoder(make([]byte, 0, 64+16*(len(st.Universe)+len(st.Births))+8*(len(st.Owned)+len(st.Resident))))
	e.Uvarint(uint64(st.Epoch))
	e.Uvarint(uint64(len(st.Universe)))
	for i := range st.Universe {
		e.Object(&st.Universe[i])
	}
	e.Uvarint(uint64(len(st.Births)))
	for i := range st.Births {
		e.Birth(&st.Births[i])
	}
	e.Bool(st.Owned != nil)
	e.ObjectIDs(st.Owned)
	e.ObjectIDs(st.Resident)
	return e.Bytes()
}

// decodeState parses a recSnapshot payload.
func decodeState(payload []byte) (*State, error) {
	d := netproto.NewDecoder(payload)
	st := &State{Epoch: int(d.Uvarint())}
	if n := d.Len(3); n > 0 {
		st.Universe = make([]model.Object, n)
		for i := range st.Universe {
			st.Universe[i] = d.Object()
		}
	}
	if n := d.Len(19); n > 0 {
		st.Births = make([]model.Birth, n)
		for i := range st.Births {
			st.Births[i] = d.Birth()
		}
	}
	hasOwned := d.Bool()
	owned := d.ObjectIDs()
	if hasOwned {
		if owned == nil {
			owned = []model.ObjectID{}
		}
		st.Owned = owned
	}
	st.Resident = d.ObjectIDs()
	if err := decodeErr(d); err != nil {
		return nil, err
	}
	return st, nil
}

// apply folds one journal record into the state. Admissions and
// evictions are idempotent set operations and births dedup by ID (see
// the State doc for why that tolerance is sound here).
func (st *State) apply(typ byte, payload []byte) error {
	d := netproto.NewDecoder(payload)
	switch typ {
	case recBirth:
		b := d.Birth()
		if err := decodeErr(d); err != nil {
			return err
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
		id := model.ObjectID(d.Varint())
		if err := decodeErr(d); err != nil {
			return err
		}
		if !slices.Contains(st.Resident, id) {
			st.Resident = append(st.Resident, id)
		}
	case recEvict:
		id := model.ObjectID(d.Varint())
		if err := decodeErr(d); err != nil {
			return err
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
