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
// Each layout is written once, as a walk over a Cursor that either
// encodes or decodes: encoding appends every field the walk visits,
// decoding fills it. walkBody holds every frame body's layout, the
// model walks below hold the values frames share with persistence, and
// a layout cannot be written one way and read another.
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

	"github.com/deltacache/delta/internal/model"
)

// encPool recycles encode scratch buffers across connections: a frame
// is staged here, copied to the connection's write buffer, and the
// scratch goes back to the pool, so steady-state sends allocate
// nothing.
var encPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4<<10); return &b },
}

// Cursor walks a layout in one direction, with the v3 scalar
// conventions. Encoding, each field method appends the field's value;
// decoding, it reads the field and stores it. The wire codec walks
// frames with one, and the persistence layer its snapshot and journal
// records, so a model value has one encoding on the wire and on disk.
//
// Decoding is bounds-checked: truncation is reported through a sticky
// error (see Err) instead of a panic, so arbitrary fuzz input surfaces
// as an error, never a crash, and every field after the first failure
// is left as it was. Slice lengths are validated against the bytes
// actually remaining before any allocation, so a corrupt length cannot
// trigger an unbounded make.
type Cursor struct {
	b   []byte // encoding: everything so far; decoding: what is left
	dec bool
	err error
}

// Encoding returns a cursor that appends to dst.
func Encoding(dst []byte) *Cursor { return &Cursor{b: dst} }

// Decoding returns a cursor that reads b.
func Decoding(b []byte) *Cursor { return &Cursor{b: b, dec: true} }

// Bytes returns everything encoded so far (or, decoding, what is left).
func (c *Cursor) Bytes() []byte { return c.b }

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// fail records the first failure and drops the bytes, so that every
// later read comes up short.
func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.b = nil
}

func (c *Cursor) truncated(what string) {
	c.fail(fmt.Errorf("netproto: v3 decode: truncated or corrupt %s", what))
}

// U8, Uvarint, F64, Bool, Str and Blob each walk one scalar, and
// Varint a signed integer of any width, in the conventions at the top
// of this file.

func (c *Cursor) U8(v *byte) {
	if c.dec {
		c.readU8(v)
		return
	}
	c.b = append(c.b, *v)
}

func (c *Cursor) Uvarint(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	x, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.truncated("uvarint")
		return
	}
	*v = x
	c.b = c.b[n:]
}

// Varint walks a signed integer as a zigzag varint; decoding narrows it
// to T.
func Varint[T ~int | ~int32 | ~int64](c *Cursor, v *T) {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, int64(*v))
		return
	}
	x, n := binary.Varint(c.b)
	if n <= 0 {
		c.truncated("varint")
		return
	}
	*v = T(x)
	c.b = c.b[n:]
}

func (c *Cursor) F64(v *float64) {
	if c.dec {
		c.readF64(v)
		return
	}
	c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
}

func (c *Cursor) Bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	c.U8(&b)
	*v = b != 0
}

// Str walks a string. Decoding copies it out of the input (decoded
// frames own their memory); the handful of constant strings that ride
// every hot reply (result sources, policy names) are interned so
// steady-state decoding does not allocate for them. The switch on
// string(raw) compares without converting.
func (c *Cursor) Str(v *string) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(len(*v)))
		c.b = append(c.b, *v...)
		return
	}
	switch raw := c.span(); string(raw) {
	case "cache":
		*v = "cache"
	case "repository":
		*v = "repository"
	case "mixed":
		*v = "mixed"
	default:
		*v = string(raw)
	}
}

// Blob walks a length-prefixed byte slice. Decoding copies it out of
// the input; a zero-length slice decodes as nil.
func (c *Cursor) Blob(v *[]byte) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(len(*v)))
		c.b = append(c.b, *v...)
		return
	}
	if raw := c.span(); len(raw) > 0 {
		*v = make([]byte, len(raw))
		copy(*v, raw)
	}
}

// List walks a slice's element count and returns it, for the caller to
// walk each element. Decoding sizes *s (left nil when empty) once the
// count passes the check in count.
func List[T any](c *Cursor, s *[]T, minLen int) int {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(len(*s)))
		return len(*s)
	}
	n := c.count(minLen)
	if n > 0 {
		*s = make([]T, n)
	}
	return n
}

// IDs walks a counted list of signed integers, the layout of every ID
// list.
func IDs[T ~int | ~int32 | ~int64](c *Cursor, s *[]T) {
	for i := range List(c, s, 1) {
		Varint(c, &(*s)[i])
	}
}

// readU8 and readF64 are the out-of-line decode halves of the field
// methods whose encode half is short enough to inline.

func (c *Cursor) readU8(v *byte) {
	if len(c.b) < 1 {
		c.truncated("byte")
		return
	}
	*v = c.b[0]
	c.b = c.b[1:]
}

func (c *Cursor) readF64(v *float64) {
	if len(c.b) < 8 {
		c.truncated("float64")
		return
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
}

// count decodes a slice length and validates it against the bytes left
// at minLen, at least 1, encoded bytes per element: the shortest an
// element can be.
func (c *Cursor) count(minLen int) int {
	n, k := binary.Uvarint(c.b)
	if k <= 0 || n > uint64((len(c.b)-k)/minLen) {
		c.truncated("slice length")
		return 0
	}
	c.b = c.b[k:]
	return int(n)
}

// span decodes a length-prefixed run of bytes, aliasing the input.
func (c *Cursor) span() []byte {
	n := c.count(1)
	raw := c.b[:n]
	c.b = c.b[n:]
	return raw
}

// tail reports whether a frame tail's fields are walked. A tail is
// written only when it carries something (present) and read whenever
// bytes remain, so an absent tail decodes as zero fields and frames
// that leave it empty pay no bytes for it.
func (c *Cursor) tail(present bool) bool {
	if c.dec {
		return len(c.b) > 0
	}
	return present
}

// --- model values ---

// Birth walks a birth: the object, its sky position and publication
// time.
func Birth(c *Cursor, b *model.Birth) {
	walkObject(c, &b.Object)
	c.F64(&b.RA)
	c.F64(&b.Dec)
	Varint(c, &b.Time)
}

// Births walks a counted birth list.
func Births(c *Cursor, s *[]model.Birth) {
	for i := range List(c, s, birthLen) {
		Birth(c, &(*s)[i])
	}
}

func walkObject(c *Cursor, o *model.Object) {
	Varint(c, &o.ID)
	Varint(c, &o.Size)
	c.Uvarint(&o.Trixel)
}

func walkQuery(c *Cursor, q *model.Query) {
	Varint(c, &q.ID)
	IDs(c, &q.Objects)
	Varint(c, &q.Cost)
	Varint(c, &q.Tolerance)
	Varint(c, &q.Time)
}

func walkUpdate(c *Cursor, u *model.Update) {
	Varint(c, &u.ID)
	Varint(c, &u.Object)
	Varint(c, &u.Cost)
	Varint(c, &u.Time)
}

// walkStats is the StatsMsg layout.
func walkStats(c *Cursor, s *StatsMsg) {
	Varint(c, &s.Ledger.QueryShip)
	Varint(c, &s.Ledger.UpdateShip)
	Varint(c, &s.Ledger.ObjectLoad)
	Varint(c, &s.Ledger.QueryShips)
	Varint(c, &s.Ledger.UpdateShips)
	Varint(c, &s.Ledger.ObjectLoads)
	IDs(c, &s.Cached)
	c.Str(&s.Policy)
	Varint(c, &s.Queries)
	Varint(c, &s.AtCache)
	Varint(c, &s.DroppedInvalidations)
	Varint(c, &s.DedupedLoads)
	for i := range List(c, &s.Metrics, sampleLen) {
		walkSample(c, &s.Metrics[i])
	}
}

func walkSample(c *Cursor, s *Sample) {
	c.Str(&s.Name)
	c.F64(&s.Value)
}

func walkShardStats(c *Cursor, s *ShardStats) {
	Varint(c, &s.Shard)
	c.Str(&s.Addr)
	c.Bool(&s.Alive)
	c.Str(&s.Err)
	walkStats(c, &s.Stats)
}

func walkRow(c *Cursor, r *ResultRow) {
	Varint(c, &r.ObjID)
	c.F64(&r.RA)
	c.F64(&r.Dec)
	c.F64(&r.R)
}

func walkSpan(c *Cursor, s *TraceSpan) {
	c.Str(&s.Name)
	c.Str(&s.Node)
	Varint(c, &s.Shard)
	Varint(c, &s.Epoch)
	Varint(c, &s.Fragments)
	Varint(c, &s.Objects)
	c.Str(&s.Source)
	c.Str(&s.Detail)
	Varint(c, &s.Elapsed)
}

// The shortest encoding of each list element that is a struct: its
// zero value's, measured by its own walk, so a List bound cannot drift
// from the layout it guards.
var (
	birthLen      = zeroLen(Birth)
	objectLen     = zeroLen(walkObject)
	updateLen     = zeroLen(walkUpdate)
	shardStatsLen = zeroLen(walkShardStats)
	sampleLen     = zeroLen(walkSample)
	rowLen        = zeroLen(walkRow)
	spanLen       = zeroLen(walkSpan)
)

func zeroLen[T any](walk func(*Cursor, *T)) int {
	var (
		c    Cursor
		zero T
	)
	walk(&c, &zero)
	return len(c.b)
}

// --- frames ---

// walkFrame walks a frame's type, request ID and body. Encoding, it
// refuses a body not of the frame type's body type; decoding, it
// requires the body to use every byte it was handed.
func (c *Cursor) walkFrame(f *Frame) {
	c.U8((*byte)(&f.Type))
	c.Uvarint(&f.RequestID)
	body, ok := walkBody(c, f.Type, f.Body)
	switch {
	case !c.dec && !ok:
		c.fail(fmt.Errorf("netproto: v3 cannot encode %T as %s", f.Body, f.Type))
	case c.dec:
		f.Body = body
		if len(c.b) != 0 {
			c.fail(fmt.Errorf("netproto: v3 decode: %d trailing bytes after %s body", len(c.b), f.Type))
		}
	}
}

// decoded returns what a body walk yields: decoding, the body, boxed
// here (the one allocation every decoded frame makes); encoding, nil.
func decoded[T any](c *Cursor, b *T) any {
	if c.dec {
		return *b
	}
	return nil
}

// walkBody walks the body layout the frame type implies. Encoding, it
// reports whether body is of that type's body type; decoding, it
// returns the body, which owns all of its memory (nothing aliases the
// connection's scratch buffer).
func walkBody(c *Cursor, t MsgType, body any) (any, bool) {
	switch t {
	case MsgHello:
		b, ok := body.(Hello)
		c.Str(&b.Role)
		Varint(c, &b.Version)
		return decoded(c, &b), ok
	case MsgHelloAck:
		b, ok := body.(HelloAck)
		Varint(c, &b.Version)
		return decoded(c, &b), ok
	case MsgQuery:
		b, ok := body.(QueryMsg)
		walkQuery(c, &b.Query)
		c.F64(&b.Region.RA)
		c.F64(&b.Region.Dec)
		c.F64(&b.Region.RadiusDeg)
		if c.tail(b.TraceID != 0) {
			c.Uvarint(&b.TraceID)
		}
		return decoded(c, &b), ok
	case MsgQueryResult:
		b, ok := body.(QueryResultMsg)
		Varint(c, &b.QueryID)
		Varint(c, &b.Logical)
		for i := range List(c, &b.Rows, rowLen) {
			walkRow(c, &b.Rows[i])
		}
		c.Blob(&b.Payload)
		c.Str(&b.Source)
		Varint(c, &b.Elapsed)
		c.Bool(&b.Degraded)
		IDs(c, &b.MissingShards)
		// A present tail always carries both fields.
		if c.tail(b.TraceID != 0 || len(b.Spans) > 0) {
			c.Uvarint(&b.TraceID)
			for i := range List(c, &b.Spans, spanLen) {
				walkSpan(c, &b.Spans[i])
			}
		}
		return decoded(c, &b), ok
	case MsgUpdateFeed:
		b, ok := body.(UpdateFeedMsg)
		walkUpdate(c, &b.Update)
		return decoded(c, &b), ok
	case MsgShipUpdates:
		b, ok := body.(ShipUpdatesMsg)
		IDs(c, &b.IDs)
		return decoded(c, &b), ok
	case MsgUpdates:
		b, ok := body.(UpdatesMsg)
		for i := range List(c, &b.Updates, updateLen) {
			walkUpdate(c, &b.Updates[i])
		}
		c.Blob(&b.Payload)
		return decoded(c, &b), ok
	case MsgLoadObject:
		b, ok := body.(LoadObjectMsg)
		IDs(c, &b.Objects)
		return decoded(c, &b), ok
	case MsgObjectData:
		b, ok := body.(ObjectDataMsg)
		for i := range List(c, &b.Objects, objectLen) {
			walkObject(c, &b.Objects[i])
		}
		c.Blob(&b.Payload)
		return decoded(c, &b), ok
	case MsgInvalidate:
		b, ok := body.(InvalidateMsg)
		walkUpdate(c, &b.Update)
		return decoded(c, &b), ok
	case MsgStats:
		b, ok := body.(StatsMsg)
		walkStats(c, &b)
		return decoded(c, &b), ok
	case MsgError:
		b, ok := body.(ErrorMsg)
		c.Str(&b.Message)
		return decoded(c, &b), ok
	case MsgShardQuery:
		b, ok := body.(ShardQueryMsg)
		walkQuery(c, &b.Query)
		Varint(c, &b.Shard)
		Varint(c, &b.Fragments)
		if c.tail(b.TraceID != 0) {
			c.Uvarint(&b.TraceID)
		}
		return decoded(c, &b), ok
	case MsgClusterStats:
		b, ok := body.(ClusterStatsMsg)
		for i := range List(c, &b.Shards, shardStatsLen) {
			walkShardStats(c, &b.Shards[i])
		}
		walkStats(c, &b.Aggregate)
		c.Bool(&b.Degraded)
		return decoded(c, &b), ok
	case MsgAdminResize:
		b, ok := body.(AdminResizeMsg)
		for i := range List(c, &b.Shards, 1) {
			c.Str(&b.Shards[i])
		}
		return decoded(c, &b), ok
	case MsgRebalanceStatus:
		b, ok := body.(RebalanceStatusMsg)
		c.Bool(&b.Active)
		c.Str(&b.Phase)
		Varint(c, &b.Epoch)
		Varint(c, &b.From)
		Varint(c, &b.To)
		Varint(c, &b.MovedObjects)
		Varint(c, &b.MovedBytes)
		Varint(c, &b.Completed)
		c.Str(&b.LastError)
		return decoded(c, &b), ok
	case MsgReshard:
		b, ok := body.(ReshardMsg)
		Varint(c, &b.Epoch)
		IDs(c, &b.Owned)
		for i := range List(c, &b.Universe, objectLen) {
			walkObject(c, &b.Universe[i])
		}
		IDs(c, &b.Warm)
		Varint(c, &b.Resident)
		Varint(c, &b.Dropped)
		if c.tail(b.Horizon != 0) {
			Varint(c, &b.Horizon)
		}
		return decoded(c, &b), ok
	case MsgObjectBirth:
		b, ok := body.(ObjectBirthMsg)
		Births(c, &b.Births)
		Varint(c, &b.Accepted)
		return decoded(c, &b), ok
	case MsgBirthGrant:
		b, ok := body.(BirthGrantMsg)
		Births(c, &b.Births)
		Varint(c, &b.Accepted)
		if c.tail(b.Epoch != 0) {
			Varint(c, &b.Epoch)
		}
		return decoded(c, &b), ok
	}
	if c.dec {
		c.fail(fmt.Errorf("netproto: v3 decode: unknown frame type %d", uint8(t)))
	}
	return nil, false
}
