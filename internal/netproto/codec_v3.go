// Wire codec v3: hand-rolled binary framing for every frame type, the
// handshake included. Explicit little-endian field encoding: one
// length-prefixed frame per message, varint-encoded integers and slice
// lengths, payload bytes appended without intermediate copies.
//
// Frame layout:
//
//	offset  size   field
//	0       4      uint32 LE: length of everything after this prefix
//	4       1      MsgType
//	5       var    uvarint RequestID
//	...            body (per-type layout, see docs/PROTOCOL.md)
//
// Scalar conventions: unsigned integers are uvarints, signed integers
// (including time.Duration and cost.Bytes) are zigzag varints, float64s
// are 8 raw LE bytes, bools are one byte (0/1), strings and byte slices
// are uvarint length + bytes, element slices are uvarint count +
// elements. Zero-length slices decode as nil (nil and empty are one
// value on the wire).
//
// Buffer ownership: encoding stages frames in pooled scratch buffers
// (returned to the pool after the bytes reach the connection's write
// buffer); decoding reads each frame into a per-connection scratch
// buffer that the NEXT Recv reuses, so every decoded field that needs
// to outlive the call — payloads, strings, slices — is copied out into
// fresh memory. A decoded frame therefore owns all of its memory and
// may be held across subsequent Recvs (pinned by the aliasing test).
package netproto

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// timeDuration narrows a decoded varint back to a virtual-clock time.
func timeDuration(v int64) time.Duration { return time.Duration(v) }

// encPool recycles encode scratch buffers across connections: a
// frame is staged here, copied to the connection's write buffer, and
// the scratch goes back to the pool, so steady-state sends allocate
// nothing.
var encPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4<<10); return &b },
}

// Encoder is an append-only encode cursor with the v3 scalar
// conventions. The wire codec stages frames in one, and the
// persistence layer writes its snapshot and journal records with one,
// so a model value has one encoding on the wire and on disk.
type Encoder struct {
	b []byte
}

// NewEncoder returns an encoder appending to dst.
func NewEncoder(dst []byte) *Encoder { return &Encoder{b: dst} }

// Bytes returns everything encoded so far.
func (e *Encoder) Bytes() []byte { return e.b }

// U8, Uvarint, Varint, F64, Bool and Str each append one scalar, in the
// conventions at the top of this file; the Decoder's namesakes read it
// back.
func (e *Encoder) U8(v byte)        { e.b = append(e.b, v) }
func (e *Encoder) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *Encoder) Varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *Encoder) F64(v float64)    { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(p []byte) {
	e.Uvarint(uint64(len(p)))
	e.b = append(e.b, p...)
}

// Decoder is a bounds-checked decode cursor over the Encoder's format.
// Every getter reports truncation through a sticky error (see Err)
// instead of panicking, so arbitrary fuzz input surfaces as an error,
// never a crash; slice lengths are validated against the bytes actually
// remaining before any allocation, so a corrupt length cannot trigger
// an unbounded make.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder reading b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("netproto: v3 decode: truncated or corrupt %s", what)
	}
}

func (d *Decoder) U8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *Decoder) F64() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Len decodes a slice length and validates it against the remaining
// bytes at minSize encoded bytes per element.
func (d *Decoder) Len(minSize int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minSize < 1 {
		minSize = 1
	}
	if n > uint64(len(d.b)/minSize) {
		d.fail("slice length")
		return 0
	}
	return int(n)
}

// Str copies a string out of the input (decoded frames own their
// memory). The handful of constant strings that ride every hot reply
// (result sources, policy names) are interned so steady-state decoding
// does not allocate for them; a switch on string(b) compares without
// converting.
func (d *Decoder) Str() string {
	n := d.Len(1)
	if d.err != nil || n == 0 {
		return ""
	}
	raw := d.b[:n]
	d.b = d.b[n:]
	switch string(raw) {
	case "cache":
		return "cache"
	case "repository":
		return "repository"
	case "mixed":
		return "mixed"
	}
	return string(raw)
}

// Blob copies a length-prefixed byte slice out of the input.
// Zero-length slices decode as nil.
func (d *Decoder) Blob() []byte {
	n := d.Len(1)
	if d.err != nil || n == 0 {
		return nil
	}
	p := make([]byte, n)
	copy(p, d.b[:n])
	d.b = d.b[n:]
	return p
}

// --- model substructures ---

func encQuery(e *Encoder, q *model.Query) {
	e.Varint(int64(q.ID))
	e.Uvarint(uint64(len(q.Objects)))
	for _, id := range q.Objects {
		e.Varint(int64(id))
	}
	e.Varint(int64(q.Cost))
	e.Varint(int64(q.Tolerance))
	e.Varint(int64(q.Time))
}

func decQuery(d *Decoder) model.Query {
	var q model.Query
	q.ID = model.QueryID(d.Varint())
	if n := d.Len(1); n > 0 {
		q.Objects = make([]model.ObjectID, n)
		for i := range q.Objects {
			q.Objects[i] = model.ObjectID(d.Varint())
		}
	}
	q.Cost = cost.Bytes(d.Varint())
	q.Tolerance = timeDuration(d.Varint())
	q.Time = timeDuration(d.Varint())
	return q
}

func encUpdate(e *Encoder, u *model.Update) {
	e.Varint(int64(u.ID))
	e.Varint(int64(u.Object))
	e.Varint(int64(u.Cost))
	e.Varint(int64(u.Time))
}

func decUpdate(d *Decoder) model.Update {
	return model.Update{
		ID:     model.UpdateID(d.Varint()),
		Object: model.ObjectID(d.Varint()),
		Cost:   cost.Bytes(d.Varint()),
		Time:   timeDuration(d.Varint()),
	}
}

// Object appends an object's metadata.
func (e *Encoder) Object(o *model.Object) {
	e.Varint(int64(o.ID))
	e.Varint(int64(o.Size))
	e.Uvarint(o.Trixel)
}

// Object decodes what Encoder.Object wrote.
func (d *Decoder) Object() model.Object {
	return model.Object{
		ID:     model.ObjectID(d.Varint()),
		Size:   cost.Bytes(d.Varint()),
		Trixel: d.Uvarint(),
	}
}

// Birth appends a birth: the object, its sky position and publication
// time.
func (e *Encoder) Birth(b *model.Birth) {
	e.Object(&b.Object)
	e.F64(b.RA)
	e.F64(b.Dec)
	e.Varint(int64(b.Time))
}

// Birth decodes what Encoder.Birth wrote.
func (d *Decoder) Birth() model.Birth {
	return model.Birth{
		Object: d.Object(),
		RA:     d.F64(),
		Dec:    d.F64(),
		Time:   timeDuration(d.Varint()),
	}
}

// ObjectIDs appends a counted ID list.
func (e *Encoder) ObjectIDs(ids []model.ObjectID) {
	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.Varint(int64(id))
	}
}

// ObjectIDs decodes what Encoder.ObjectIDs wrote; an empty list decodes
// as nil.
func (d *Decoder) ObjectIDs() []model.ObjectID {
	n := d.Len(1)
	if n == 0 {
		return nil
	}
	ids := make([]model.ObjectID, n)
	for i := range ids {
		ids[i] = model.ObjectID(d.Varint())
	}
	return ids
}

func encStats(e *Encoder, s *StatsMsg) {
	e.Varint(int64(s.Ledger.QueryShip))
	e.Varint(int64(s.Ledger.UpdateShip))
	e.Varint(int64(s.Ledger.ObjectLoad))
	e.Varint(s.Ledger.QueryShips)
	e.Varint(s.Ledger.UpdateShips)
	e.Varint(s.Ledger.ObjectLoads)
	e.ObjectIDs(s.Cached)
	e.Str(s.Policy)
	e.Varint(s.Queries)
	e.Varint(s.AtCache)
	e.Varint(s.Shipped)
	e.Varint(s.DroppedInvalidations)
	e.Varint(s.DedupedLoads)
	e.Varint(s.MigratedIn)
	e.Varint(s.ObjectsBorn)
	e.Varint(s.CoverCacheHits)
	e.Varint(s.CoverCacheMisses)
	e.Varint(int64(s.SnapshotAge))
	e.Varint(s.JournalRecords)
	e.Varint(s.RecoveredWarm)
	e.Varint(s.Replicas)
	e.Varint(s.ResultCacheHits)
	e.Varint(s.ResultCacheMisses)
	e.Varint(s.CoalescedQueries)
	e.Varint(s.GrantBatches)
}

func decStats(d *Decoder) StatsMsg {
	var s StatsMsg
	s.Ledger.QueryShip = cost.Bytes(d.Varint())
	s.Ledger.UpdateShip = cost.Bytes(d.Varint())
	s.Ledger.ObjectLoad = cost.Bytes(d.Varint())
	s.Ledger.QueryShips = d.Varint()
	s.Ledger.UpdateShips = d.Varint()
	s.Ledger.ObjectLoads = d.Varint()
	s.Cached = d.ObjectIDs()
	s.Policy = d.Str()
	s.Queries = d.Varint()
	s.AtCache = d.Varint()
	s.Shipped = d.Varint()
	s.DroppedInvalidations = d.Varint()
	s.DedupedLoads = d.Varint()
	s.MigratedIn = d.Varint()
	s.ObjectsBorn = d.Varint()
	s.CoverCacheHits = d.Varint()
	s.CoverCacheMisses = d.Varint()
	s.SnapshotAge = time.Duration(d.Varint())
	s.JournalRecords = d.Varint()
	s.RecoveredWarm = d.Varint()
	s.Replicas = d.Varint()
	s.ResultCacheHits = d.Varint()
	s.ResultCacheMisses = d.Varint()
	s.CoalescedQueries = d.Varint()
	s.GrantBatches = d.Varint()
	return s
}

func encSpan(e *Encoder, s *TraceSpan) {
	e.Str(s.Name)
	e.Str(s.Node)
	e.Varint(int64(s.Shard))
	e.Varint(int64(s.Epoch))
	e.Varint(int64(s.Fragments))
	e.Varint(int64(s.Objects))
	e.Str(s.Source)
	e.Str(s.Detail)
	e.Varint(int64(s.Elapsed))
}

func decSpan(d *Decoder) TraceSpan {
	return TraceSpan{
		Name:      d.Str(),
		Node:      d.Str(),
		Shard:     int(d.Varint()),
		Epoch:     int(d.Varint()),
		Fragments: int(d.Varint()),
		Objects:   int(d.Varint()),
		Source:    d.Str(),
		Detail:    d.Str(),
		Elapsed:   timeDuration(d.Varint()),
	}
}

// --- frame bodies ---

// encodeBodyV3 appends the body's binary layout, dispatching on the
// concrete type. A body whose type does not belong to the vocabulary is
// an error.
func encodeBodyV3(e *Encoder, t MsgType, body any) error {
	switch b := body.(type) {
	case Hello:
		e.Str(b.Role)
		e.Varint(int64(b.Version))
	case HelloAck:
		e.Varint(int64(b.Version))
	case QueryMsg:
		encQuery(e, &b.Query)
		e.F64(b.Region.RA)
		e.F64(b.Region.Dec)
		e.F64(b.Region.RadiusDeg)
		// Frame tail, written only when meaningful: decoders treat an
		// absent tail as an untraced query, so untraced frames pay no
		// bytes for tracing.
		if b.TraceID != 0 {
			e.Uvarint(b.TraceID)
		}
	case QueryResultMsg:
		e.Varint(int64(b.QueryID))
		e.Varint(int64(b.Logical))
		e.Uvarint(uint64(len(b.Rows)))
		for i := range b.Rows {
			r := &b.Rows[i]
			e.Varint(r.ObjID)
			e.F64(r.RA)
			e.F64(r.Dec)
			e.F64(r.R)
		}
		e.Blob(b.Payload)
		e.Str(b.Source)
		e.Varint(int64(b.Elapsed))
		e.Bool(b.Degraded)
		e.Uvarint(uint64(len(b.MissingShards)))
		for _, s := range b.MissingShards {
			e.Varint(int64(s))
		}
		// Frame tail: trace ID + recorded spans, elided entirely when
		// both are empty (see the QueryMsg tail note). A present tail
		// always carries both fields.
		if b.TraceID != 0 || len(b.Spans) > 0 {
			e.Uvarint(b.TraceID)
			e.Uvarint(uint64(len(b.Spans)))
			for i := range b.Spans {
				encSpan(e, &b.Spans[i])
			}
		}
	case UpdateFeedMsg:
		encUpdate(e, &b.Update)
	case ShipUpdatesMsg:
		e.Uvarint(uint64(len(b.IDs)))
		for _, id := range b.IDs {
			e.Varint(int64(id))
		}
	case UpdatesMsg:
		e.Uvarint(uint64(len(b.Updates)))
		for i := range b.Updates {
			encUpdate(e, &b.Updates[i])
		}
		e.Blob(b.Payload)
	case LoadObjectMsg:
		e.ObjectIDs(b.Objects)
	case ObjectDataMsg:
		e.Uvarint(uint64(len(b.Objects)))
		for i := range b.Objects {
			e.Object(&b.Objects[i])
		}
		e.Blob(b.Payload)
	case InvalidateMsg:
		encUpdate(e, &b.Update)
	case StatsMsg:
		encStats(e, &b)
	case ErrorMsg:
		e.Str(b.Message)
	case ShardQueryMsg:
		encQuery(e, &b.Query)
		e.Varint(int64(b.Shard))
		e.Varint(int64(b.Fragments))
		// Frame tail: trace ID (see the QueryMsg tail note).
		if b.TraceID != 0 {
			e.Uvarint(b.TraceID)
		}
	case ClusterStatsMsg:
		e.Uvarint(uint64(len(b.Shards)))
		for i := range b.Shards {
			s := &b.Shards[i]
			e.Varint(int64(s.Shard))
			e.Str(s.Addr)
			e.Bool(s.Alive)
			e.Str(s.Err)
			encStats(e, &s.Stats)
		}
		encStats(e, &b.Aggregate)
		e.Bool(b.Degraded)
	case AdminResizeMsg:
		e.Uvarint(uint64(len(b.Shards)))
		for _, s := range b.Shards {
			e.Str(s)
		}
	case RebalanceStatusMsg:
		e.Bool(b.Active)
		e.Str(b.Phase)
		e.Varint(int64(b.Epoch))
		e.Varint(int64(b.From))
		e.Varint(int64(b.To))
		e.Varint(b.MovedObjects)
		e.Varint(int64(b.MovedBytes))
		e.Varint(b.Completed)
		e.Str(b.LastError)
	case ReshardMsg:
		e.Varint(int64(b.Epoch))
		e.ObjectIDs(b.Owned)
		e.Uvarint(uint64(len(b.Universe)))
		for i := range b.Universe {
			e.Object(&b.Universe[i])
		}
		e.ObjectIDs(b.Warm)
		e.Varint(int64(b.Resident))
		e.Varint(int64(b.Dropped))
		// Replicas and then Horizon ride the frame tail: each is encoded
		// only when it or a later field is non-zero.
		if b.Replicas != 0 || b.Horizon != 0 {
			e.Varint(int64(b.Replicas))
		}
		if b.Horizon != 0 {
			e.Varint(int64(b.Horizon))
		}
	case ObjectBirthMsg:
		e.Uvarint(uint64(len(b.Births)))
		for i := range b.Births {
			e.Birth(&b.Births[i])
		}
		e.Varint(int64(b.Accepted))
	case BirthGrantMsg:
		e.Uvarint(uint64(len(b.Births)))
		for i := range b.Births {
			e.Birth(&b.Births[i])
		}
		e.Varint(int64(b.Accepted))
		// Epoch rides the frame tail, like ReshardMsg.Replicas.
		if b.Epoch != 0 {
			e.Varint(int64(b.Epoch))
		}
	default:
		return fmt.Errorf("netproto: v3 cannot encode %T as %s", body, t)
	}
	return nil
}

// decodeBodyV3 decodes the body the frame type implies. The body owns
// all of its memory (nothing aliases the connection's scratch buffer).
func decodeBodyV3(d *Decoder, t MsgType) (any, error) {
	var body any
	switch t {
	case MsgHello:
		var b Hello
		b.Role = d.Str()
		b.Version = int(d.Varint())
		body = b
	case MsgHelloAck:
		body = HelloAck{Version: int(d.Varint())}
	case MsgQuery:
		var b QueryMsg
		b.Query = decQuery(d)
		b.Region.RA = d.F64()
		b.Region.Dec = d.F64()
		b.Region.RadiusDeg = d.F64()
		// Frame tail: absent decodes as an untraced query.
		if d.err == nil && len(d.b) > 0 {
			b.TraceID = d.Uvarint()
		}
		body = b
	case MsgQueryResult:
		var b QueryResultMsg
		b.QueryID = model.QueryID(d.Varint())
		b.Logical = cost.Bytes(d.Varint())
		// Minimum row encoding: 1-byte varint ObjID + three raw f64s.
		if n := d.Len(25); n > 0 {
			b.Rows = make([]ResultRow, n)
			for i := range b.Rows {
				b.Rows[i] = ResultRow{ObjID: d.Varint(), RA: d.F64(), Dec: d.F64(), R: d.F64()}
			}
		}
		b.Payload = d.Blob()
		b.Source = d.Str()
		b.Elapsed = timeDuration(d.Varint())
		b.Degraded = d.Bool()
		if n := d.Len(1); n > 0 {
			b.MissingShards = make([]int, n)
			for i := range b.MissingShards {
				b.MissingShards[i] = int(d.Varint())
			}
		}
		// Frame tail: trace ID + spans. A present tail
		// always carries both fields.
		if d.err == nil && len(d.b) > 0 {
			b.TraceID = d.Uvarint()
			// Minimum span encoding: four 1-byte strings + five 1-byte
			// varints.
			if n := d.Len(9); n > 0 {
				b.Spans = make([]TraceSpan, n)
				for i := range b.Spans {
					b.Spans[i] = decSpan(d)
				}
			}
		}
		body = b
	case MsgUpdateFeed:
		body = UpdateFeedMsg{Update: decUpdate(d)}
	case MsgShipUpdates:
		var b ShipUpdatesMsg
		if n := d.Len(1); n > 0 {
			b.IDs = make([]model.UpdateID, n)
			for i := range b.IDs {
				b.IDs[i] = model.UpdateID(d.Varint())
			}
		}
		body = b
	case MsgUpdates:
		var b UpdatesMsg
		if n := d.Len(4); n > 0 {
			b.Updates = make([]model.Update, n)
			for i := range b.Updates {
				b.Updates[i] = decUpdate(d)
			}
		}
		b.Payload = d.Blob()
		body = b
	case MsgLoadObject:
		body = LoadObjectMsg{Objects: d.ObjectIDs()}
	case MsgObjectData:
		var b ObjectDataMsg
		if n := d.Len(3); n > 0 {
			b.Objects = make([]model.Object, n)
			for i := range b.Objects {
				b.Objects[i] = d.Object()
			}
		}
		b.Payload = d.Blob()
		body = b
	case MsgInvalidate:
		body = InvalidateMsg{Update: decUpdate(d)}
	case MsgStats:
		body = decStats(d)
	case MsgError:
		body = ErrorMsg{Message: d.Str()}
	case MsgShardQuery:
		var b ShardQueryMsg
		b.Query = decQuery(d)
		b.Shard = int(d.Varint())
		b.Fragments = int(d.Varint())
		// Frame tail, as on MsgQuery.
		if d.err == nil && len(d.b) > 0 {
			b.TraceID = d.Uvarint()
		}
		body = b
	case MsgClusterStats:
		var b ClusterStatsMsg
		if n := d.Len(18); n > 0 {
			b.Shards = make([]ShardStats, n)
			for i := range b.Shards {
				s := &b.Shards[i]
				s.Shard = int(d.Varint())
				s.Addr = d.Str()
				s.Alive = d.Bool()
				s.Err = d.Str()
				s.Stats = decStats(d)
			}
		}
		b.Aggregate = decStats(d)
		b.Degraded = d.Bool()
		body = b
	case MsgAdminResize:
		var b AdminResizeMsg
		if n := d.Len(1); n > 0 {
			b.Shards = make([]string, n)
			for i := range b.Shards {
				b.Shards[i] = d.Str()
			}
		}
		body = b
	case MsgRebalanceStatus:
		var b RebalanceStatusMsg
		b.Active = d.Bool()
		b.Phase = d.Str()
		b.Epoch = int(d.Varint())
		b.From = int(d.Varint())
		b.To = int(d.Varint())
		b.MovedObjects = d.Varint()
		b.MovedBytes = cost.Bytes(d.Varint())
		b.Completed = d.Varint()
		b.LastError = d.Str()
		body = b
	case MsgReshard:
		var b ReshardMsg
		b.Epoch = int(d.Varint())
		b.Owned = d.ObjectIDs()
		if n := d.Len(3); n > 0 {
			b.Universe = make([]model.Object, n)
			for i := range b.Universe {
				b.Universe[i] = d.Object()
			}
		}
		b.Warm = d.ObjectIDs()
		b.Resident = int(d.Varint())
		b.Dropped = int(d.Varint())
		if d.err == nil && len(d.b) > 0 {
			b.Replicas = int(d.Varint())
		}
		if d.err == nil && len(d.b) > 0 {
			b.Horizon = model.ObjectID(d.Varint())
		}
		body = b
	case MsgObjectBirth:
		var b ObjectBirthMsg
		// Minimum birth encoding: 3-byte object + two raw f64s + time.
		if n := d.Len(20); n > 0 {
			b.Births = make([]model.Birth, n)
			for i := range b.Births {
				b.Births[i] = d.Birth()
			}
		}
		b.Accepted = int(d.Varint())
		body = b
	case MsgBirthGrant:
		var b BirthGrantMsg
		if n := d.Len(20); n > 0 {
			b.Births = make([]model.Birth, n)
			for i := range b.Births {
				b.Births[i] = d.Birth()
			}
		}
		b.Accepted = int(d.Varint())
		// Frame tail, as on MsgReshard's Replicas.
		if d.err == nil && len(d.b) > 0 {
			b.Epoch = int(d.Varint())
		}
		body = b
	default:
		return nil, fmt.Errorf("netproto: v3 decode: unknown frame type %d", uint8(t))
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("netproto: v3 decode: %d trailing bytes after %s body", len(d.b), t)
	}
	return body, nil
}
