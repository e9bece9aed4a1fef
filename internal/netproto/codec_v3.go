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

// encBuf is an append-only encode cursor over a pooled byte slice.
type encBuf struct {
	b []byte
}

func (e *encBuf) u8(v byte)        { e.b = append(e.b, v) }
func (e *encBuf) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encBuf) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *encBuf) f64(v float64)    { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *encBuf) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encBuf) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *encBuf) bytes(p []byte) {
	e.uvarint(uint64(len(p)))
	e.b = append(e.b, p...)
}

// decBuf is a bounds-checked decode cursor. Every getter reports
// truncation through the sticky err instead of panicking, so arbitrary
// fuzz input surfaces as an error, never a crash; slice lengths are
// validated against the bytes actually remaining before any allocation,
// so a corrupt length cannot trigger an unbounded make.
type decBuf struct {
	b   []byte
	err error
}

func (d *decBuf) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("netproto: v3 decode: truncated or corrupt %s", what)
	}
}

func (d *decBuf) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decBuf) uvarint() uint64 {
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

func (d *decBuf) varint() int64 {
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

func (d *decBuf) f64() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decBuf) boolean() bool { return d.u8() != 0 }

// length decodes a slice length and validates it against the remaining
// bytes at minSize encoded bytes per element.
func (d *decBuf) length(minSize int) int {
	n := d.uvarint()
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

// str copies a string out of the scratch buffer (decoded frames own
// their memory). The handful of constant strings that ride every hot
// reply (result sources, policy names) are interned so steady-state
// decoding does not allocate for them; a switch on string(b) compares
// without converting.
func (d *decBuf) str() string {
	n := d.length(1)
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

// bytes copies a byte slice out of the scratch buffer. Zero-length
// slices decode as nil.
func (d *decBuf) bytes() []byte {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return nil
	}
	p := make([]byte, n)
	copy(p, d.b[:n])
	d.b = d.b[n:]
	return p
}

// --- model substructures ---

func encQuery(e *encBuf, q *model.Query) {
	e.varint(int64(q.ID))
	e.uvarint(uint64(len(q.Objects)))
	for _, id := range q.Objects {
		e.varint(int64(id))
	}
	e.varint(int64(q.Cost))
	e.varint(int64(q.Tolerance))
	e.varint(int64(q.Time))
}

func decQuery(d *decBuf) model.Query {
	var q model.Query
	q.ID = model.QueryID(d.varint())
	if n := d.length(1); n > 0 {
		q.Objects = make([]model.ObjectID, n)
		for i := range q.Objects {
			q.Objects[i] = model.ObjectID(d.varint())
		}
	}
	q.Cost = cost.Bytes(d.varint())
	q.Tolerance = timeDuration(d.varint())
	q.Time = timeDuration(d.varint())
	return q
}

func encUpdate(e *encBuf, u *model.Update) {
	e.varint(int64(u.ID))
	e.varint(int64(u.Object))
	e.varint(int64(u.Cost))
	e.varint(int64(u.Time))
}

func decUpdate(d *decBuf) model.Update {
	return model.Update{
		ID:     model.UpdateID(d.varint()),
		Object: model.ObjectID(d.varint()),
		Cost:   cost.Bytes(d.varint()),
		Time:   timeDuration(d.varint()),
	}
}

func encObject(e *encBuf, o *model.Object) {
	e.varint(int64(o.ID))
	e.varint(int64(o.Size))
	e.uvarint(o.Trixel)
}

func decObject(d *decBuf) model.Object {
	return model.Object{
		ID:     model.ObjectID(d.varint()),
		Size:   cost.Bytes(d.varint()),
		Trixel: d.uvarint(),
	}
}

func encBirth(e *encBuf, b *model.Birth) {
	encObject(e, &b.Object)
	e.f64(b.RA)
	e.f64(b.Dec)
	e.varint(int64(b.Time))
}

func decBirth(d *decBuf) model.Birth {
	return model.Birth{
		Object: decObject(d),
		RA:     d.f64(),
		Dec:    d.f64(),
		Time:   timeDuration(d.varint()),
	}
}

func encObjectIDs(e *encBuf, ids []model.ObjectID) {
	e.uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.varint(int64(id))
	}
}

func decObjectIDs(d *decBuf) []model.ObjectID {
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

func encStats(e *encBuf, s *StatsMsg) {
	e.varint(int64(s.Ledger.QueryShip))
	e.varint(int64(s.Ledger.UpdateShip))
	e.varint(int64(s.Ledger.ObjectLoad))
	e.varint(s.Ledger.QueryShips)
	e.varint(s.Ledger.UpdateShips)
	e.varint(s.Ledger.ObjectLoads)
	encObjectIDs(e, s.Cached)
	e.str(s.Policy)
	e.varint(s.Queries)
	e.varint(s.AtCache)
	e.varint(s.Shipped)
	e.varint(s.DroppedInvalidations)
	e.varint(s.DedupedLoads)
	e.varint(s.MigratedIn)
	e.varint(s.ObjectsBorn)
	e.varint(s.CoverCacheHits)
	e.varint(s.CoverCacheMisses)
	e.varint(int64(s.SnapshotAge))
	e.varint(s.JournalRecords)
	e.varint(s.RecoveredWarm)
	e.varint(s.Replicas)
	e.varint(s.ResultCacheHits)
	e.varint(s.ResultCacheMisses)
	e.varint(s.CoalescedQueries)
	e.varint(s.GrantBatches)
}

func decStats(d *decBuf) StatsMsg {
	var s StatsMsg
	s.Ledger.QueryShip = cost.Bytes(d.varint())
	s.Ledger.UpdateShip = cost.Bytes(d.varint())
	s.Ledger.ObjectLoad = cost.Bytes(d.varint())
	s.Ledger.QueryShips = d.varint()
	s.Ledger.UpdateShips = d.varint()
	s.Ledger.ObjectLoads = d.varint()
	s.Cached = decObjectIDs(d)
	s.Policy = d.str()
	s.Queries = d.varint()
	s.AtCache = d.varint()
	s.Shipped = d.varint()
	s.DroppedInvalidations = d.varint()
	s.DedupedLoads = d.varint()
	s.MigratedIn = d.varint()
	s.ObjectsBorn = d.varint()
	s.CoverCacheHits = d.varint()
	s.CoverCacheMisses = d.varint()
	s.SnapshotAge = time.Duration(d.varint())
	s.JournalRecords = d.varint()
	s.RecoveredWarm = d.varint()
	s.Replicas = d.varint()
	s.ResultCacheHits = d.varint()
	s.ResultCacheMisses = d.varint()
	s.CoalescedQueries = d.varint()
	s.GrantBatches = d.varint()
	return s
}

func encSpan(e *encBuf, s *TraceSpan) {
	e.str(s.Name)
	e.str(s.Node)
	e.varint(int64(s.Shard))
	e.varint(int64(s.Epoch))
	e.varint(int64(s.Fragments))
	e.varint(int64(s.Objects))
	e.str(s.Source)
	e.str(s.Detail)
	e.varint(int64(s.Elapsed))
}

func decSpan(d *decBuf) TraceSpan {
	return TraceSpan{
		Name:      d.str(),
		Node:      d.str(),
		Shard:     int(d.varint()),
		Epoch:     int(d.varint()),
		Fragments: int(d.varint()),
		Objects:   int(d.varint()),
		Source:    d.str(),
		Detail:    d.str(),
		Elapsed:   timeDuration(d.varint()),
	}
}

// --- frame bodies ---

// encodeBodyV3 appends the body's binary layout, dispatching on the
// concrete type. A body whose type does not belong to the vocabulary is
// an error.
func encodeBodyV3(e *encBuf, t MsgType, body any) error {
	switch b := body.(type) {
	case Hello:
		e.str(b.Role)
		e.varint(int64(b.Version))
	case HelloAck:
		e.varint(int64(b.Version))
	case QueryMsg:
		encQuery(e, &b.Query)
		e.f64(b.Region.RA)
		e.f64(b.Region.Dec)
		e.f64(b.Region.RadiusDeg)
		// Frame tail, written only when meaningful: decoders treat an
		// absent tail as an untraced query, so untraced frames pay no
		// bytes for tracing.
		if b.TraceID != 0 {
			e.uvarint(b.TraceID)
		}
	case QueryResultMsg:
		e.varint(int64(b.QueryID))
		e.varint(int64(b.Logical))
		e.uvarint(uint64(len(b.Rows)))
		for i := range b.Rows {
			r := &b.Rows[i]
			e.varint(r.ObjID)
			e.f64(r.RA)
			e.f64(r.Dec)
			e.f64(r.R)
		}
		e.bytes(b.Payload)
		e.str(b.Source)
		e.varint(int64(b.Elapsed))
		e.boolean(b.Degraded)
		e.uvarint(uint64(len(b.MissingShards)))
		for _, s := range b.MissingShards {
			e.varint(int64(s))
		}
		// Frame tail: trace ID + recorded spans, elided entirely when
		// both are empty (see the QueryMsg tail note). A present tail
		// always carries both fields.
		if b.TraceID != 0 || len(b.Spans) > 0 {
			e.uvarint(b.TraceID)
			e.uvarint(uint64(len(b.Spans)))
			for i := range b.Spans {
				encSpan(e, &b.Spans[i])
			}
		}
	case UpdateFeedMsg:
		encUpdate(e, &b.Update)
	case ShipUpdatesMsg:
		e.uvarint(uint64(len(b.IDs)))
		for _, id := range b.IDs {
			e.varint(int64(id))
		}
	case UpdatesMsg:
		e.uvarint(uint64(len(b.Updates)))
		for i := range b.Updates {
			encUpdate(e, &b.Updates[i])
		}
		e.bytes(b.Payload)
	case LoadObjectMsg:
		encObjectIDs(e, b.Objects)
	case ObjectDataMsg:
		e.uvarint(uint64(len(b.Objects)))
		for i := range b.Objects {
			encObject(e, &b.Objects[i])
		}
		e.bytes(b.Payload)
	case InvalidateMsg:
		encUpdate(e, &b.Update)
	case StatsMsg:
		encStats(e, &b)
	case ErrorMsg:
		e.str(b.Message)
	case ShardQueryMsg:
		encQuery(e, &b.Query)
		e.varint(int64(b.Shard))
		e.varint(int64(b.Fragments))
		// Frame tail: trace ID (see the QueryMsg tail note).
		if b.TraceID != 0 {
			e.uvarint(b.TraceID)
		}
	case ClusterStatsMsg:
		e.uvarint(uint64(len(b.Shards)))
		for i := range b.Shards {
			s := &b.Shards[i]
			e.varint(int64(s.Shard))
			e.str(s.Addr)
			e.boolean(s.Alive)
			e.str(s.Err)
			encStats(e, &s.Stats)
		}
		encStats(e, &b.Aggregate)
		e.boolean(b.Degraded)
	case AdminResizeMsg:
		e.uvarint(uint64(len(b.Shards)))
		for _, s := range b.Shards {
			e.str(s)
		}
	case RebalanceStatusMsg:
		e.boolean(b.Active)
		e.str(b.Phase)
		e.varint(int64(b.Epoch))
		e.varint(int64(b.From))
		e.varint(int64(b.To))
		e.varint(b.MovedObjects)
		e.varint(int64(b.MovedBytes))
		e.varint(b.Completed)
		e.str(b.LastError)
	case ReshardMsg:
		e.varint(int64(b.Epoch))
		encObjectIDs(e, b.Owned)
		e.uvarint(uint64(len(b.Universe)))
		for i := range b.Universe {
			encObject(e, &b.Universe[i])
		}
		encObjectIDs(e, b.Warm)
		e.varint(int64(b.Resident))
		e.varint(int64(b.Dropped))
		// Replicas and then Horizon ride the frame tail: each is encoded
		// only when it or a later field is non-zero.
		if b.Replicas != 0 || b.Horizon != 0 {
			e.varint(int64(b.Replicas))
		}
		if b.Horizon != 0 {
			e.varint(int64(b.Horizon))
		}
	case ObjectBirthMsg:
		e.uvarint(uint64(len(b.Births)))
		for i := range b.Births {
			encBirth(e, &b.Births[i])
		}
		e.varint(int64(b.Accepted))
	case BirthGrantMsg:
		e.uvarint(uint64(len(b.Births)))
		for i := range b.Births {
			encBirth(e, &b.Births[i])
		}
		e.varint(int64(b.Accepted))
		// Epoch rides the frame tail, like ReshardMsg.Replicas.
		if b.Epoch != 0 {
			e.varint(int64(b.Epoch))
		}
	default:
		return fmt.Errorf("netproto: v3 cannot encode %T as %s", body, t)
	}
	return nil
}

// decodeBodyV3 decodes the body the frame type implies. The body owns
// all of its memory (nothing aliases the connection's scratch buffer).
func decodeBodyV3(d *decBuf, t MsgType) (any, error) {
	var body any
	switch t {
	case MsgHello:
		var b Hello
		b.Role = d.str()
		b.Version = int(d.varint())
		body = b
	case MsgHelloAck:
		body = HelloAck{Version: int(d.varint())}
	case MsgQuery:
		var b QueryMsg
		b.Query = decQuery(d)
		b.Region.RA = d.f64()
		b.Region.Dec = d.f64()
		b.Region.RadiusDeg = d.f64()
		// Frame tail: absent decodes as an untraced query.
		if d.err == nil && len(d.b) > 0 {
			b.TraceID = d.uvarint()
		}
		body = b
	case MsgQueryResult:
		var b QueryResultMsg
		b.QueryID = model.QueryID(d.varint())
		b.Logical = cost.Bytes(d.varint())
		// Minimum row encoding: 1-byte varint ObjID + three raw f64s.
		if n := d.length(25); n > 0 {
			b.Rows = make([]ResultRow, n)
			for i := range b.Rows {
				b.Rows[i] = ResultRow{ObjID: d.varint(), RA: d.f64(), Dec: d.f64(), R: d.f64()}
			}
		}
		b.Payload = d.bytes()
		b.Source = d.str()
		b.Elapsed = timeDuration(d.varint())
		b.Degraded = d.boolean()
		if n := d.length(1); n > 0 {
			b.MissingShards = make([]int, n)
			for i := range b.MissingShards {
				b.MissingShards[i] = int(d.varint())
			}
		}
		// Frame tail: trace ID + spans. A present tail
		// always carries both fields.
		if d.err == nil && len(d.b) > 0 {
			b.TraceID = d.uvarint()
			// Minimum span encoding: four 1-byte strings + five 1-byte
			// varints.
			if n := d.length(9); n > 0 {
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
		if n := d.length(1); n > 0 {
			b.IDs = make([]model.UpdateID, n)
			for i := range b.IDs {
				b.IDs[i] = model.UpdateID(d.varint())
			}
		}
		body = b
	case MsgUpdates:
		var b UpdatesMsg
		if n := d.length(4); n > 0 {
			b.Updates = make([]model.Update, n)
			for i := range b.Updates {
				b.Updates[i] = decUpdate(d)
			}
		}
		b.Payload = d.bytes()
		body = b
	case MsgLoadObject:
		body = LoadObjectMsg{Objects: decObjectIDs(d)}
	case MsgObjectData:
		var b ObjectDataMsg
		if n := d.length(3); n > 0 {
			b.Objects = make([]model.Object, n)
			for i := range b.Objects {
				b.Objects[i] = decObject(d)
			}
		}
		b.Payload = d.bytes()
		body = b
	case MsgInvalidate:
		body = InvalidateMsg{Update: decUpdate(d)}
	case MsgStats:
		body = decStats(d)
	case MsgError:
		body = ErrorMsg{Message: d.str()}
	case MsgShardQuery:
		var b ShardQueryMsg
		b.Query = decQuery(d)
		b.Shard = int(d.varint())
		b.Fragments = int(d.varint())
		// Frame tail, as on MsgQuery.
		if d.err == nil && len(d.b) > 0 {
			b.TraceID = d.uvarint()
		}
		body = b
	case MsgClusterStats:
		var b ClusterStatsMsg
		if n := d.length(18); n > 0 {
			b.Shards = make([]ShardStats, n)
			for i := range b.Shards {
				s := &b.Shards[i]
				s.Shard = int(d.varint())
				s.Addr = d.str()
				s.Alive = d.boolean()
				s.Err = d.str()
				s.Stats = decStats(d)
			}
		}
		b.Aggregate = decStats(d)
		b.Degraded = d.boolean()
		body = b
	case MsgAdminResize:
		var b AdminResizeMsg
		if n := d.length(1); n > 0 {
			b.Shards = make([]string, n)
			for i := range b.Shards {
				b.Shards[i] = d.str()
			}
		}
		body = b
	case MsgRebalanceStatus:
		var b RebalanceStatusMsg
		b.Active = d.boolean()
		b.Phase = d.str()
		b.Epoch = int(d.varint())
		b.From = int(d.varint())
		b.To = int(d.varint())
		b.MovedObjects = d.varint()
		b.MovedBytes = cost.Bytes(d.varint())
		b.Completed = d.varint()
		b.LastError = d.str()
		body = b
	case MsgReshard:
		var b ReshardMsg
		b.Epoch = int(d.varint())
		b.Owned = decObjectIDs(d)
		if n := d.length(3); n > 0 {
			b.Universe = make([]model.Object, n)
			for i := range b.Universe {
				b.Universe[i] = decObject(d)
			}
		}
		b.Warm = decObjectIDs(d)
		b.Resident = int(d.varint())
		b.Dropped = int(d.varint())
		if d.err == nil && len(d.b) > 0 {
			b.Replicas = int(d.varint())
		}
		if d.err == nil && len(d.b) > 0 {
			b.Horizon = model.ObjectID(d.varint())
		}
		body = b
	case MsgObjectBirth:
		var b ObjectBirthMsg
		// Minimum birth encoding: 3-byte object + two raw f64s + time.
		if n := d.length(20); n > 0 {
			b.Births = make([]model.Birth, n)
			for i := range b.Births {
				b.Births[i] = decBirth(d)
			}
		}
		b.Accepted = int(d.varint())
		body = b
	case MsgBirthGrant:
		var b BirthGrantMsg
		if n := d.length(20); n > 0 {
			b.Births = make([]model.Birth, n)
			for i := range b.Births {
				b.Births[i] = decBirth(d)
			}
		}
		b.Accepted = int(d.varint())
		// Frame tail, as on MsgReshard's Replicas.
		if d.err == nil && len(d.b) > 0 {
			b.Epoch = int(d.varint())
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
