// Package model defines the domain types shared by every Delta
// subsystem: data objects, queries, updates, and the interleaved
// query–update event sequence that both the simulator and the live
// middleware consume.
//
// Terminology follows Section 3 of the paper: the repository is a set of
// data objects S = o1..oN produced by spatially partitioning the survey
// table; each update u affects exactly one object o(u); each query q is
// a read-only query accessing a set of objects B(q) with a tolerance for
// staleness t(q).
package model

import (
	"fmt"
	"time"

	"github.com/deltacache/delta/internal/cost"
)

// ObjectID identifies a data object (a spatial partition of the survey
// table). IDs are dense and start at 1, matching the paper's object-IDs
// 1..68.
type ObjectID int32

// QueryID identifies a query within a trace.
type QueryID int64

// UpdateID identifies an update within a trace.
type UpdateID int64

// Object is a data object hosted by the repository: a spatial partition
// of the primary survey table (PhotoObj in SDSS).
type Object struct {
	ID ObjectID `json:"id"`
	// Size is the full size of the object; loading the object into the
	// cache costs exactly Size (the paper's load cost ν(o)).
	Size cost.Bytes `json:"size"`
	// Trixel is the HTM trixel ID that defines the partition's spatial
	// extent. Zero when the object set was not built from an HTM mesh.
	Trixel uint64 `json:"trixel,omitempty"`
}

// NoTolerance marks a query that must reflect every update received
// before its arrival (t(q) = 0).
const NoTolerance time.Duration = 0

// AnyStaleness marks a query that accepts arbitrarily stale data.
const AnyStaleness time.Duration = 1<<63 - 1

// Query is a read-only client query.
type Query struct {
	ID QueryID `json:"id"`
	// Objects is B(q): the set of data objects the query accesses,
	// derived from the query's spatial region via the HTM index.
	Objects []ObjectID `json:"objects"`
	// Cost is ν(q): the size of the query's result, which is what
	// shipping the query to the repository costs.
	Cost cost.Bytes `json:"cost"`
	// Tolerance is t(q): an answer must incorporate all updates on B(q)
	// except those that arrived within the last Tolerance units of
	// virtual time.
	Tolerance time.Duration `json:"toleranceNs"`
	// Time is the query's arrival time on the virtual clock.
	Time time.Duration `json:"timeNs"`
}

// Validate reports whether q can be answered at all: it accesses at
// least one object, and its result size ν(q) is not negative, since
// that size is what shipping q charges and what a cache pays out as
// load credit.
func (q *Query) Validate() error {
	if len(q.Objects) == 0 {
		return fmt.Errorf("query %d accesses no objects", q.ID)
	}
	if q.Cost < 0 {
		return fmt.Errorf("query %d has negative cost %d", q.ID, q.Cost)
	}
	return nil
}

// Update is a data modification (predominantly an insert) produced by
// the survey's data pipeline.
type Update struct {
	ID UpdateID `json:"id"`
	// Object is o(u): the single data object the update affects.
	Object ObjectID `json:"object"`
	// Cost is ν(u): the size of the update payload, which is what
	// shipping the update to the cache costs.
	Cost cost.Bytes `json:"cost"`
	// Time is the update's arrival time at the repository on the
	// virtual clock.
	Time time.Duration `json:"timeNs"`
}

// Birth is the publication of a new data object: a rapidly-growing
// repository keeps partitioning freshly ingested survey data into new
// objects while serving. The position locates the object on the sky so
// spatially-aware components (HTM ownership cuts, the query→object
// mapping) can place it without recomputing the partition.
type Birth struct {
	// Object is the new object's full metadata (ID, size, trixel).
	Object Object `json:"object"`
	// RA and Dec are the object's sky position in degrees.
	RA  float64 `json:"ra"`
	Dec float64 `json:"dec"`
	// Time is the publication time on the virtual clock.
	Time time.Duration `json:"timeNs"`
}

// EventKind discriminates trace events.
type EventKind int

const (
	// EventQuery is a client query arriving at the cache.
	EventQuery EventKind = iota + 1
	// EventUpdate is a pipeline update arriving at the repository.
	EventUpdate
	// EventBirth is a new data object published at the repository.
	EventBirth
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventQuery:
		return "query"
	case EventUpdate:
		return "update"
	case EventBirth:
		return "birth"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one element of the interleaved query–update–birth sequence.
// Exactly one of Query, Update and Birth is non-nil, matching Kind.
type Event struct {
	Seq    int64     `json:"seq"`
	Kind   EventKind `json:"kind"`
	Query  *Query    `json:"query,omitempty"`
	Update *Update   `json:"update,omitempty"`
	Birth  *Birth    `json:"birth,omitempty"`
}

// Time returns the event's virtual arrival time.
func (e *Event) Time() time.Duration {
	switch e.Kind {
	case EventQuery:
		return e.Query.Time
	case EventBirth:
		return e.Birth.Time
	default:
		return e.Update.Time
	}
}

// Validate reports whether the event is structurally consistent.
func (e *Event) Validate() error {
	switch e.Kind {
	case EventQuery:
		if e.Query == nil || e.Update != nil || e.Birth != nil {
			return fmt.Errorf("event %d: query event must carry exactly a query", e.Seq)
		}
		if err := e.Query.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", e.Seq, err)
		}
	case EventUpdate:
		if e.Update == nil || e.Query != nil || e.Birth != nil {
			return fmt.Errorf("event %d: update event must carry exactly an update", e.Seq)
		}
		if e.Update.Object <= 0 {
			return fmt.Errorf("event %d: update %d has invalid object", e.Seq, e.Update.ID)
		}
		if e.Update.Cost < 0 {
			return fmt.Errorf("event %d: update %d has negative cost", e.Seq, e.Update.ID)
		}
	case EventBirth:
		if e.Birth == nil || e.Query != nil || e.Update != nil {
			return fmt.Errorf("event %d: birth event must carry exactly a birth", e.Seq)
		}
		if e.Birth.Object.ID <= 0 {
			return fmt.Errorf("event %d: birth has invalid object id %d", e.Seq, e.Birth.Object.ID)
		}
		if e.Birth.Object.Size <= 0 {
			return fmt.Errorf("event %d: born object %d has non-positive size", e.Seq, e.Birth.Object.ID)
		}
	default:
		return fmt.Errorf("event %d: unknown kind %d", e.Seq, int(e.Kind))
	}
	return nil
}

// UpdateRequired reports whether an answer to q must incorporate update
// u, per the currency semantics of Section 3: given tolerance t(q), the
// answer must include all updates on B(q) except those that arrived
// within the last t(q) time units. The caller has already established
// that u affects an object in B(q).
func UpdateRequired(u *Update, q *Query) bool {
	if q.Tolerance == AnyStaleness {
		return false
	}
	// Updates that arrived within (q.Time - t(q), q.Time] may be
	// omitted; anything at or before the threshold must be applied.
	return u.Time <= q.Time-q.Tolerance
}

// TotalQueryCost sums ν(q) over all query events: the traffic NoCache
// would incur.
func TotalQueryCost(events []Event) cost.Bytes {
	var total cost.Bytes
	for i := range events {
		if events[i].Kind == EventQuery {
			total += events[i].Query.Cost
		}
	}
	return total
}

// TotalUpdateCost sums ν(u) over all update events: the traffic Replica
// would incur.
func TotalUpdateCost(events []Event) cost.Bytes {
	var total cost.Bytes
	for i := range events {
		if events[i].Kind == EventUpdate {
			total += events[i].Update.Cost
		}
	}
	return total
}
