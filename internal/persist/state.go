package persist

import (
	"fmt"
	"slices"

	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// State is what only the node itself knows, and so what it persists:
// the repository's births, the one durable copy of the universe, and a
// cache's residents, which let it rejoin warm. Everything else is
// rebuilt or resent: the base universe from the survey configuration,
// and a cache's births, owned set and epoch from its repository and its
// router. A snapshot grows with the births or the warm state, not the
// survey.
//
// Residency is a warmth hint, not a durability contract: recovery
// offers every resident the node still owns to its policy through
// core.Warmable, which adopts only what fits. A stale or slightly wrong
// resident set therefore costs warmth, never correctness — which is
// what lets journal replay treat admissions and evictions as idempotent
// set operations.
type State struct {
	// Births are the repository's object births in publication order,
	// full fidelity (sky position and publication time), so its catalog
	// can replay them through AddObject. A cache ignores them.
	Births []model.Birth
	// Resident is a cache's resident set at snapshot time.
	Resident []model.ObjectID

	// generation is the snapshot generation this state was decoded
	// from; Recover uses it to pair the journal with its snapshot.
	generation uint64
}

// walk is the snapshot record's layout.
func (st *State) walk(c *netproto.Cursor) {
	netproto.Births(c, &st.Births)
	netproto.IDs(c, &st.Resident)
}

// entry is one journal record after the header: a birth (recBirth) or
// an object ID (recAdmit, recEvict).
type entry struct {
	typ   byte
	birth model.Birth
	id    model.ObjectID
}

// walk is an entry's payload layout, which its type selects.
func (e *entry) walk(c *netproto.Cursor) {
	switch e.typ {
	case recBirth:
		netproto.Birth(c, &e.birth)
	case recAdmit, recEvict:
		netproto.Varint(c, &e.id)
	}
}

// apply folds one journal record into the state. Admissions and
// evictions are idempotent set operations and births dedup by ID (see
// the State doc for why that tolerance is sound here).
func (st *State) apply(typ byte, payload []byte) error {
	e := entry{typ: typ}
	if err := decode(payload, e.walk); err != nil {
		return err
	}
	switch typ {
	case recBirth:
		if !slices.ContainsFunc(st.Births, func(known model.Birth) bool { return known.Object.ID == e.birth.Object.ID }) {
			st.Births = append(st.Births, e.birth)
		}
	case recAdmit:
		if !slices.Contains(st.Resident, e.id) {
			st.Resident = append(st.Resident, e.id)
		}
	case recEvict:
		if i := slices.Index(st.Resident, e.id); i >= 0 {
			st.Resident = slices.Delete(st.Resident, i, i+1)
		}
	default:
		// An unknown record type is indistinguishable from corruption;
		// treat it as the end of the clean prefix.
		return fmt.Errorf("persist: unknown journal record type %d", typ)
	}
	return nil
}
