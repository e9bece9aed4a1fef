package netproto

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// connOverBuffer returns a Conn whose writes and reads share one
// buffer, so a frame sent on it can be received on it — the
// single-goroutine harness for codec round trips.
func connOverBuffer() *Conn { return NewConn(&bytes.Buffer{}) }

// roundTrip sends f and receives it back.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	c := connOverBuffer()
	if err := c.Send(f); err != nil {
		t.Fatalf("send %s: %v", f.Type, err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatalf("recv %s: %v", f.Type, err)
	}
	return got
}

// nilEmptySlices returns body with every zero-length slice set to nil,
// at any depth. That is the codec's one deliberate non-identity: a
// slice is a count plus elements on the wire, so nil and empty are the
// same bytes and both decode as nil. Everything else must survive a
// round trip exactly. Nested slices are normalized in place, so call it
// once the frame has been sent.
func nilEmptySlices(body any) any {
	v := reflect.New(reflect.TypeOf(body)).Elem()
	v.Set(reflect.ValueOf(body))
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			if v.Len() == 0 {
				v.Set(reflect.Zero(v.Type()))
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(v)
	return v.Interface()
}

// TestV3RoundTripSeedFrames pins the binary codec on every seed frame
// shape: type, request ID and body must come back as they were sent
// (up to nilEmptySlices).
func TestV3RoundTripSeedFrames(t *testing.T) {
	for _, f := range seedFrames() {
		f.RequestID = 42
		got := roundTrip(t, f)
		if got.Type != f.Type || got.RequestID != 42 {
			t.Fatalf("%s: frame header mutated: %+v", f.Type, got)
		}
		if want := nilEmptySlices(f.Body); !reflect.DeepEqual(got.Body, want) {
			t.Errorf("%s: received body %+v != sent body %+v", f.Type, got.Body, want)
		}
	}
}

// quickBodies lists every frame vocabulary entry for the property
// test: the body's concrete type is generated randomly per trial.
var quickBodies = []struct {
	t    MsgType
	body any
}{
	{MsgHello, Hello{}},
	{MsgHelloAck, HelloAck{}},
	{MsgQuery, QueryMsg{}},
	{MsgQueryResult, QueryResultMsg{}},
	{MsgShipUpdates, ShipUpdatesMsg{}},
	{MsgUpdates, UpdatesMsg{}},
	{MsgLoadObject, LoadObjectMsg{}},
	{MsgObjectData, ObjectDataMsg{}},
	{MsgInvalidate, InvalidateMsg{}},
	{MsgStats, StatsMsg{}},
	{MsgError, ErrorMsg{}},
	{MsgShardQuery, ShardQueryMsg{}},
	{MsgAdminResize, AdminResizeMsg{}},
	{MsgRebalanceStatus, RebalanceStatusMsg{}},
	{MsgReshard, ReshardMsg{}},
	{MsgObjectBirth, ObjectBirthMsg{}},
	{MsgBirthGrant, BirthGrantMsg{}},
	{MsgUniverse, UniverseMsg{}},
	{MsgInterest, InterestMsg{}},
}

// TestV3RoundTripProperty is the encode→decode identity property: for
// randomly generated instances of every frame type, the frame that
// comes out of a round trip equals the frame that went in, up to
// nilEmptySlices.
func TestV3RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trials = 25
	for _, entry := range quickBodies {
		typ := reflect.TypeOf(entry.body)
		for trial := 0; trial < trials; trial++ {
			v, ok := quick.Value(typ, rng)
			if !ok {
				t.Fatalf("%s: cannot generate %v", entry.t, typ)
			}
			f := Frame{Type: entry.t, RequestID: uint64(rng.Int63()), Body: v.Interface()}
			got := roundTrip(t, f)
			if got.Type != f.Type || got.RequestID != f.RequestID {
				t.Fatalf("%s trial %d: header mutated: sent (%s, %d), received (%s, %d)",
					entry.t, trial, f.Type, f.RequestID, got.Type, got.RequestID)
			}
			if want := nilEmptySlices(f.Body); !reflect.DeepEqual(got.Body, want) {
				t.Fatalf("%s trial %d: body mutated:\n sent:     %#v\n received: %#v",
					entry.t, trial, want, got.Body)
			}
		}
	}
}

// fillLists sets every slice in v, at any depth, to n zero-value
// elements. The elements' own slices stay nil, so every list holds its
// element type's shortest encoding.
func fillLists(v reflect.Value, n int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLists(v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), n, n))
	}
}

// TestV3ListBoundAdmitsShortestElements pins the lower edge of the
// slice-length guard: a body whose every list holds one to three
// zero-value elements, each at its shortest encoding, must round-trip.
// A minimum element length stated above the true one would refuse it.
func TestV3ListBoundAdmitsShortestElements(t *testing.T) {
	for _, entry := range quickBodies {
		for n := 1; n <= 3; n++ {
			v := reflect.New(reflect.TypeOf(entry.body)).Elem()
			fillLists(v, n)
			f := Frame{Type: entry.t, Body: v.Interface()}
			if got := roundTrip(t, f); !reflect.DeepEqual(got.Body, f.Body) {
				t.Errorf("%s with %d-element lists: received %+v, sent %+v", entry.t, n, got.Body, f.Body)
			}
		}
	}
}

// TestV3TraceTailCompat pins the trace tail's wire contract on the
// three frame types that carry it: an untraced frame encodes with no
// tail at all, a traced frame round-trips its TraceID and spans
// exactly, and a tail-less body decodes as untraced.
func TestV3TraceTailCompat(t *testing.T) {
	span := TraceSpan{Name: "fragment", Node: "n", Shard: 1, Objects: 2,
		Source: "cache", Elapsed: time.Millisecond}
	cases := []struct {
		name              string
		untraced, traced  Frame
		tailLen           int // extra bytes the traced encoding may add
		checkTraced       func(t *testing.T, body any)
		checkUntracedZero func(t *testing.T, body any)
	}{
		{
			name:     "query",
			untraced: Frame{Type: MsgQuery, Body: QueryMsg{Query: model.Query{ID: 1, Objects: []model.ObjectID{1}}}},
			traced:   Frame{Type: MsgQuery, Body: QueryMsg{Query: model.Query{ID: 1, Objects: []model.ObjectID{1}}, TraceID: 0xbeef}},
			checkTraced: func(t *testing.T, body any) {
				if got := body.(QueryMsg).TraceID; got != 0xbeef {
					t.Errorf("TraceID = %#x, want 0xbeef", got)
				}
			},
			checkUntracedZero: func(t *testing.T, body any) {
				if got := body.(QueryMsg).TraceID; got != 0 {
					t.Errorf("untraced TraceID = %#x, want 0", got)
				}
			},
		},
		{
			name:     "shard-query",
			untraced: Frame{Type: MsgShardQuery, Body: ShardQueryMsg{Query: model.Query{ID: 1}, Shard: 1, Fragments: 2}},
			traced:   Frame{Type: MsgShardQuery, Body: ShardQueryMsg{Query: model.Query{ID: 1}, Shard: 1, Fragments: 2, TraceID: 0xbeef}},
			checkTraced: func(t *testing.T, body any) {
				if got := body.(ShardQueryMsg).TraceID; got != 0xbeef {
					t.Errorf("TraceID = %#x, want 0xbeef", got)
				}
			},
			checkUntracedZero: func(t *testing.T, body any) {
				if got := body.(ShardQueryMsg).TraceID; got != 0 {
					t.Errorf("untraced TraceID = %#x, want 0", got)
				}
			},
		},
		{
			name:     "query-result",
			untraced: Frame{Type: MsgQueryResult, Body: QueryResultMsg{QueryID: 1, Source: "cache"}},
			traced: Frame{Type: MsgQueryResult, Body: QueryResultMsg{QueryID: 1, Source: "cache",
				TraceID: 0xbeef, Spans: []TraceSpan{span}}},
			checkTraced: func(t *testing.T, body any) {
				res := body.(QueryResultMsg)
				if res.TraceID != 0xbeef || len(res.Spans) != 1 || !reflect.DeepEqual(res.Spans[0], span) {
					t.Errorf("traced result mutated: %+v", res)
				}
			},
			checkUntracedZero: func(t *testing.T, body any) {
				res := body.(QueryResultMsg)
				if res.TraceID != 0 || res.Spans != nil {
					t.Errorf("untraced result grew a tail: %+v", res)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := encodeFrames(t, tc.untraced)
			withTail := encodeFrames(t, tc.traced)
			if len(withTail) <= len(plain) {
				t.Errorf("traced frame (%d bytes) not longer than untraced (%d): tail missing",
					len(withTail), len(plain))
			}
			tc.checkTraced(t, roundTrip(t, tc.traced).Body)
			// The conditional tail decode must see no trailing bytes (a
			// trailing-byte error would fail the round trip) and leave
			// the trace fields zero.
			tc.checkUntracedZero(t, roundTrip(t, tc.untraced).Body)
		})
	}
}

// TestV3RejectsUnknownBody pins that the v3 encoder refuses a body
// outside the vocabulary instead of writing garbage, and leaves the
// stream clean for the next frame.
func TestV3RejectsUnknownBody(t *testing.T) {
	c := connOverBuffer()
	if err := c.Send(Frame{Type: MsgQuery, Body: struct{ X int }{1}}); err == nil {
		t.Fatal("v3 encoded an unknown body type")
	}
	// The stream must still be usable: nothing was written.
	if err := c.Send(Frame{Type: MsgError, Body: ErrorMsg{Message: "ok"}}); err != nil {
		t.Fatalf("stream poisoned after a rejected encode: %v", err)
	}
	got, err := c.Recv()
	if err != nil || got.Body.(ErrorMsg).Message != "ok" {
		t.Fatalf("recv after rejected encode: %v %+v", err, got)
	}
}

// TestV3ReservedTypeRejected pins slots 3 and 14 of the MsgType iota as
// reserved: the types around them keep their bytes, and a frame of
// either type fails to decode.
func TestV3ReservedTypeRejected(t *testing.T) {
	if MsgQueryResult != 2 || MsgShipUpdates != 4 || MsgShardQuery != 13 ||
		MsgAdminResize != 15 || MsgBirthGrant != 19 || MsgUniverse != 20 || MsgInterest != 21 {
		t.Errorf("frame types moved: query-result=%d ship-updates=%d shard-query=%d admin-resize=%d birth-grant=%d universe=%d interest=%d, want 2, 4, 13, 15, 19, 20, 21",
			MsgQueryResult, MsgShipUpdates, MsgShardQuery, MsgAdminResize, MsgBirthGrant, MsgUniverse, MsgInterest)
	}
	for _, typ := range []byte{3, 14} {
		// Length 2: the type, request ID 0, no body.
		c := NewConn(readWriter{bytes.NewReader([]byte{2, 0, 0, 0, typ, 0})})
		want := fmt.Sprintf("unknown frame type %d", typ)
		if _, err := c.Recv(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("type-%d frame: err = %v, want %s", typ, err, want)
		}
	}
}

// TestV3OversizedFrameRejectedAtSender pins the sender-side MaxFrame
// check.
func TestV3OversizedFrameRejectedAtSender(t *testing.T) {
	c := connOverBuffer()
	err := c.Send(Frame{Type: MsgObjectData, Body: ObjectDataMsg{
		Payload: make([]byte, MaxFrame+1),
	}})
	if err == nil {
		t.Fatal("oversized v3 frame accepted at the sender")
	}
}

// TestV3DecodedFrameOwnsItsMemory is the buffer-reuse hazard test the
// v3 decoder's ownership rule exists for: a decoded QueryResultMsg
// payload held across subsequent Recvs on the same connection must not
// be corrupted by the receive scratch buffer being reused. Run under
// -race (CI does), aliasing would also surface as a data race when the
// holder reads while Recv writes.
func TestV3DecodedPayloadOwnershipAcrossRecv(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sender, receiver := NewConn(a), NewConn(b)

	scale := DefaultScale()
	const frames = 16
	go func() {
		for i := 0; i < frames; i++ {
			// The sender uses the pooled payload path the servers use,
			// so this also pins that a recycled send buffer cannot leak
			// into a peer's decoded frame.
			payload, release := NewPayload(scale, 2*cost.GB, int64(i))
			_ = sender.Send(Frame{Type: MsgQueryResult, Body: QueryResultMsg{
				QueryID: model.QueryID(i),
				Logical: 2 * cost.GB,
				Payload: payload,
				Source:  "cache",
			}, Release: release})
		}
	}()

	first, err := receiver.Recv()
	if err != nil {
		t.Fatal(err)
	}
	held := first.Body.(QueryResultMsg).Payload
	want := MakePayload(scale, 2*cost.GB, 0)
	if !bytes.Equal(held, want) {
		t.Fatal("first decoded payload wrong before any reuse")
	}
	done := make(chan struct{})
	go func() {
		// Concurrent reader of the held payload while later Recvs run:
		// aliasing the receive scratch would be a data race here.
		defer close(done)
		for i := 0; i < 1000; i++ {
			if held[i%len(held)] != want[i%len(want)] {
				t.Error("held payload mutated concurrently")
				return
			}
		}
	}()
	for i := 1; i < frames; i++ {
		f, err := receiver.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Body.(QueryResultMsg).Payload; !bytes.Equal(got, MakePayload(scale, 2*cost.GB, int64(i))) {
			t.Fatalf("frame %d payload corrupt", i)
		}
	}
	<-done
	if !bytes.Equal(held, want) {
		t.Fatal("payload held across Recvs was corrupted: the decoder aliased its scratch buffer")
	}
}

// TestV3AllocAdvantage enforces the codec's reason to exist in tier-1
// as an absolute bound: a steady-state encode+decode of a
// representative QueryResultMsg allocates at most 4 times — the figure
// docs/PROTOCOL.md documents (allocation counts are deterministic, so
// this is stable where ns/op would be noisy; the benchmark's
// netproto.codec_allocs_per_query tracks the same path).
func TestV3AllocAdvantage(t *testing.T) {
	c := connOverBuffer()
	scale := DefaultScale()
	frame := Frame{Type: MsgQueryResult, RequestID: 9, Body: QueryResultMsg{
		QueryID: 7,
		Logical: cost.GB,
		Rows: []ResultRow{
			{ObjID: 1, RA: 10, Dec: -5, R: 17.1}, {ObjID: 2, RA: 11, Dec: -6, R: 18.2},
			{ObjID: 3, RA: 12, Dec: -7, R: 19.3}, {ObjID: 4, RA: 13, Dec: -8, R: 20.4},
		},
		Payload: MakePayload(scale, cost.GB, 7),
		Source:  "repository",
		Elapsed: 3 * time.Millisecond,
	}}
	allocs := testing.AllocsPerRun(300, func() {
		if err := c.Send(frame); err != nil {
			panic(err)
		}
		if _, err := c.Recv(); err != nil {
			panic(err)
		}
	})
	t.Logf("allocs per encode+decode: %.1f", allocs)
	if allocs > 4 {
		t.Errorf("QueryResultMsg encode+decode allocates %.1f/op, want at most 4", allocs)
	}
}

// BenchmarkFrameRoundTrip is the codec's share of one query hop: a
// QueryMsg request and its QueryResultMsg reply, each encoded and
// decoded over a buffer with no socket, shaped like the benchmark
// module's codec probe (a multi-object query; a reply with a scaled
// payload and no rows).
func BenchmarkFrameRoundTrip(b *testing.B) {
	c := connOverBuffer()
	q := model.Query{
		ID: 7, Objects: []model.ObjectID{3, 14, 15, 92, 65}, Cost: 40 * cost.MB,
		Tolerance: time.Minute, Time: time.Hour,
	}
	frames := [2]Frame{
		{Type: MsgQuery, RequestID: 7, Body: QueryMsg{Query: q}},
		{Type: MsgQueryResult, RequestID: 7, Body: QueryResultMsg{
			QueryID: q.ID,
			Logical: q.Cost,
			Payload: MakePayload(DefaultScale(), q.Cost, int64(q.ID)),
			Source:  "cache",
			Elapsed: 50 * time.Microsecond,
		}},
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, f := range frames {
			if err := c.Send(f); err != nil {
				b.Fatal(err)
			}
			got, err := c.Recv()
			if err != nil || got.Type != f.Type || got.RequestID != f.RequestID {
				b.Fatalf("round trip of %s: got %s #%d, err %v", f.Type, got.Type, got.RequestID, err)
			}
		}
	}
}
