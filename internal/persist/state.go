package persist

import (
	"fmt"
	"slices"

	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// State is what only the node itself knows, and so what it persists to
// rejoin warm: the births it adopted and the objects it held resident.
// Everything else is rebuilt or resent: the base universe from the
// survey configuration, and a shard's owned set, epoch and the metadata
// of births it never adopted from its router's first reshard. A
// snapshot therefore grows with the node's births and warm state, not
// with the survey.
//
// Residency is a warmth hint, not a durability contract: recovery
// offers every resident the node still owns to its policy through
// core.Warmable, which adopts only what fits. A stale or slightly wrong
// resident set therefore costs warmth, never correctness — which is
// what lets journal replay treat admissions and evictions as idempotent
// set operations.
type State struct {
	// Births are the adopted object births in publication order, full
	// fidelity (sky position and publication time), so a resolver or a
	// repository catalog can replay them through AddObject.
	Births []model.Birth
	// Resident is the resident set at snapshot time.
	Resident []model.ObjectID

	// generation is the snapshot generation this state was decoded
	// from; Recover uses it to pair the journal with its snapshot.
	generation uint64
}

// encodeState renders a State as a recSnapshot payload.
func encodeState(st *State) []byte {
	e := netproto.NewEncoder(make([]byte, 0, 16+40*len(st.Births)+8*len(st.Resident)))
	e.Uvarint(uint64(len(st.Births)))
	for i := range st.Births {
		e.Birth(&st.Births[i])
	}
	e.ObjectIDs(st.Resident)
	return e.Bytes()
}

// decodeState parses a recSnapshot payload.
func decodeState(payload []byte) (*State, error) {
	d := netproto.NewDecoder(payload)
	st := &State{}
	if n := d.Len(19); n > 0 {
		st.Births = make([]model.Birth, n)
		for i := range st.Births {
			st.Births[i] = d.Birth()
		}
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
		if !slices.ContainsFunc(st.Births, func(known model.Birth) bool { return known.Object.ID == b.Object.ID }) {
			st.Births = append(st.Births, b)
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
