package netproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a), NewConn(b)
}

func TestRoundTripFrames(t *testing.T) {
	client, server := pipePair(t)
	frames := []Frame{
		{Type: MsgHello, Body: Hello{Role: "cache", Version: ProtoV3}},
		{Type: MsgQuery, Body: QueryMsg{Query: model.Query{
			ID: 7, Objects: []model.ObjectID{1, 2}, Cost: 5 * cost.MB,
			Tolerance: time.Minute, Time: 3 * time.Second,
		}}},
		{Type: MsgShipUpdates, Body: ShipUpdatesMsg{IDs: []model.UpdateID{1, 2, 3}}},
		{Type: MsgLoadObject, Body: LoadObjectMsg{Objects: []model.ObjectID{42, 7}}},
		{Type: MsgInvalidate, Body: InvalidateMsg{Update: model.Update{
			ID: 9, Object: 3, Cost: cost.MB, Time: time.Second,
		}}},
		{Type: MsgError, Body: ErrorMsg{Message: "boom"}},
	}
	done := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := client.Send(f); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i, want := range frames {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got.Type != want.Type {
			t.Fatalf("frame %d type = %s, want %s", i, got.Type, want.Type)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestQueryBodySurvivesRoundTrip(t *testing.T) {
	client, server := pipePair(t)
	q := model.Query{
		ID: 11, Objects: []model.ObjectID{5}, Cost: 123456,
		Tolerance: model.AnyStaleness, Time: 99 * time.Second,
	}
	go func() {
		_ = client.Send(Frame{Type: MsgQuery, Body: QueryMsg{Query: q}})
	}()
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	body, ok := got.Body.(QueryMsg)
	if !ok {
		t.Fatalf("body type %T", got.Body)
	}
	if body.Query.ID != q.ID || body.Query.Cost != q.Cost ||
		body.Query.Tolerance != q.Tolerance || len(body.Query.Objects) != 1 {
		t.Errorf("query mutated in transit: %+v", body.Query)
	}
}

func TestPayloadScale(t *testing.T) {
	s := PayloadScale{BytesPerGB: 1024}
	if got := s.PayloadLen(cost.GB); got != 1024 {
		t.Errorf("PayloadLen(1GB) = %d, want 1024", got)
	}
	if got := s.PayloadLen(cost.GB / 2); got != 512 {
		t.Errorf("PayloadLen(0.5GB) = %d, want 512", got)
	}
	if got := s.PayloadLen(1); got != 1 {
		t.Errorf("tiny logical sizes still get one byte, got %d", got)
	}
	if got := s.PayloadLen(0); got != 0 {
		t.Errorf("PayloadLen(0) = %d", got)
	}
	if got := s.PayloadLen(-cost.GB); got != 0 {
		t.Errorf("PayloadLen(-1GB) = %d, want 0", got)
	}
	none := PayloadScale{}
	if got := none.PayloadLen(cost.GB); got != 0 {
		t.Errorf("zero scale must carry no payload, got %d", got)
	}
}

func TestPayloadScaleCapped(t *testing.T) {
	s := PayloadScale{BytesPerGB: MaxFrame}
	if got := s.PayloadLen(100 * cost.GB); got > MaxFrame/2 {
		t.Errorf("payload %d exceeds frame cap", got)
	}
}

func TestMakePayloadDeterministic(t *testing.T) {
	s := DefaultScale()
	a := MakePayload(s, 10*cost.GB, 7)
	b := MakePayload(s, 10*cost.GB, 7)
	c := MakePayload(s, 10*cost.GB, 8)
	if len(a) == 0 {
		t.Fatal("empty payload")
	}
	if string(a) != string(b) {
		t.Error("payload not deterministic for equal seeds")
	}
	if string(a) == string(c) {
		t.Error("payload identical across different seeds")
	}
}

func TestRecvRejectsOversizedFrame(t *testing.T) {
	// A length prefix one past MaxFrame, then the start of a body: Recv
	// must refuse at the prefix rather than buffer the frame.
	stream := binary.LittleEndian.AppendUint32(nil, MaxFrame+1)
	stream = append(stream, byte(MsgObjectData), 0)
	rest := bytes.NewReader(stream)
	conn := NewConn(readWriter{rest})
	if _, err := conn.Recv(); err == nil {
		t.Error("oversized frame accepted")
	}
	if cap(conn.recvBuf) != 0 {
		t.Errorf("Recv sized its scratch buffer (%d bytes) for a frame it had to refuse", cap(conn.recvBuf))
	}
}

// readWriter adapts a reader into the ReadWriter NewConn wants.
type readWriter struct{ io.Reader }

func (readWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestMsgTypeString(t *testing.T) {
	if MsgQuery.String() != "query" || MsgObjectData.String() != "object-data" {
		t.Error("known message names wrong")
	}
	if MsgReshard.String() != "reshard" || MsgBirthGrant.String() != "birth-grant" {
		t.Error("rebalance message names wrong")
	}
	if MsgUniverse.String() != "universe" || MsgInterest.String() != "interest" {
		t.Error("universe or interest message name wrong")
	}
	if MsgType(200).String() != "msg(200)" {
		t.Error("unknown message rendering wrong")
	}
}

// TestRebalanceFramesRoundTrip pins the wire encoding of the live
// resize vocabulary: admin frames and the widen reshard with its warm
// list survive a connection round trip with their bodies intact.
func TestRebalanceFramesRoundTrip(t *testing.T) {
	client, server := pipePair(t)
	frames := []Frame{
		{Type: MsgAdminResize, Body: AdminResizeMsg{Shards: []string{"a:1", "b:2"}}},
		{Type: MsgRebalanceStatus, Body: RebalanceStatusMsg{
			Active: true, Phase: "widen", Epoch: 3, From: 4, To: 8,
			MovedObjects: 17, MovedBytes: 9 * cost.GB, Completed: 2, LastError: "x",
		}},
		{Type: MsgReshard, Body: ReshardMsg{
			Epoch: 3, Owned: []model.ObjectID{1, 2, 9}, Warm: []model.ObjectID{2, 9},
		}},
		// A narrowing reshard, with no warm list.
		{Type: MsgReshard, Body: ReshardMsg{Epoch: 4, Owned: []model.ObjectID{1, 9}}},
	}
	done := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := client.Send(f); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i, want := range frames {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got.Type != want.Type {
			t.Fatalf("frame %d: type %s, want %s", i, got.Type, want.Type)
		}
		switch body := got.Body.(type) {
		case AdminResizeMsg:
			if len(body.Shards) != 2 || body.Shards[1] != "b:2" {
				t.Errorf("admin-resize body = %+v", body)
			}
		case RebalanceStatusMsg:
			if body.Phase != "widen" || body.MovedBytes != 9*cost.GB || body.Completed != 2 {
				t.Errorf("rebalance-status body = %+v", body)
			}
		case ReshardMsg:
			if body.Epoch == 4 {
				if len(body.Owned) != 2 || len(body.Warm) != 0 {
					t.Errorf("narrowing reshard body = %+v", body)
				}
			} else if body.Epoch != 3 || len(body.Owned) != 3 || len(body.Warm) != 2 || body.Warm[1] != 9 {
				t.Errorf("reshard body = %+v", body)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
