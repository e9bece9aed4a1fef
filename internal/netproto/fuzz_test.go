package netproto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// encodeFrames renders frames exactly as Conn.Send does, giving the
// fuzzer structurally valid prefixes to mutate.
func encodeFrames(t testing.TB, frames ...Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewConn(&buf)
	for _, f := range frames {
		if err := c.Send(f); err != nil {
			t.Fatalf("encode seed frame %s: %v", f.Type, err)
		}
	}
	return buf.Bytes()
}

// seedFrames covers every body shape that crosses the wire, including
// the growth frames (births ride both the request path and the
// invalidation stream) and the batched load frames. New shapes are
// appended: the corpus writer references entries by index.
func seedFrames() []Frame {
	return []Frame{
		{Type: MsgHello, Body: Hello{Role: "cache", Version: ProtoV3}},
		{Type: MsgHelloAck, Body: HelloAck{Version: ProtoV3}},
		{Type: MsgQuery, RequestID: 7, Body: QueryMsg{Query: model.Query{
			ID: 1, Objects: []model.ObjectID{1, 2}, Cost: cost.MB,
			Tolerance: model.AnyStaleness, Time: time.Second,
		}}},
		{Type: MsgQueryResult, RequestID: 7, Body: QueryResultMsg{
			QueryID: 1, Logical: cost.MB, Payload: []byte{1, 2, 3}, Source: "cache",
		}},
		{Type: MsgInvalidate, Body: InvalidateMsg{Update: model.Update{
			ID: 9, Object: 3, Cost: cost.KB, Time: time.Minute,
		}}},
		{Type: MsgObjectBirth, Body: ObjectBirthMsg{Births: []model.Birth{{
			Object: model.Object{ID: 69, Size: cost.GB, Trixel: 123},
			RA:     182.5, Dec: -1.25, Time: time.Hour,
		}}}},
		{Type: MsgReshard, Body: ReshardMsg{
			Epoch: 2, Owned: []model.ObjectID{1, 69},
			Universe: []model.Object{{ID: 69, Size: cost.GB}},
		}},
		// A widen reshard carrying the warm list of a live resize.
		{Type: MsgReshard, Body: ReshardMsg{
			Epoch: 2, Owned: []model.ObjectID{1, 4, 69},
			Universe: []model.Object{{ID: 4, Size: cost.MB}},
			Warm:     []model.ObjectID{4, 69},
		}},
		{Type: MsgStats, Body: StatsMsg{Queries: 12, Metrics: []Sample{
			{Name: "delta_objects_born_total", Value: 3},
		}}},
		{Type: MsgError, Body: ErrorMsg{Message: "boom"}},
		// Trace-bearing shapes: the frame tails
		// carrying TraceID (queries) and TraceID+Spans (results), so the
		// fuzzer mutates tail bytes too. Appended last — earlier indices
		// are referenced by the corpus writer.
		{Type: MsgQuery, RequestID: 8, Body: QueryMsg{Query: model.Query{
			ID: 2, Objects: []model.ObjectID{3}, Cost: cost.KB,
			Tolerance: model.AnyStaleness,
		}, TraceID: 0xdeadbeef}},
		{Type: MsgShardQuery, RequestID: 9, Body: ShardQueryMsg{Query: model.Query{
			ID: 2, Objects: []model.ObjectID{3}, Cost: cost.KB,
		}, Shard: 1, Fragments: 2, TraceID: 0xdeadbeef}},
		{Type: MsgQueryResult, RequestID: 8, Body: QueryResultMsg{
			QueryID: 2, Logical: cost.KB, Source: "mixed", TraceID: 0xdeadbeef,
			Spans: []TraceSpan{
				{Name: "router", Node: "127.0.0.1:7708", Shard: -1, Epoch: 1,
					Fragments: 2, Objects: 3, Source: "mixed",
					Detail: "cover-cache=hit", Elapsed: time.Millisecond},
				{Name: "fragment", Node: "127.0.0.1:7801", Shard: 1,
					Objects: 1, Source: "cache", Elapsed: 300 * time.Microsecond},
			},
		}},
		// A reshard that names its owned set alone, and a cache's stats
		// answer with residents and gauge samples, so the fuzzer mutates
		// an ID list and a sample list.
		{Type: MsgReshard, Body: ReshardMsg{
			Epoch: 3, Owned: []model.ObjectID{1, 2, 69},
		}},
		{Type: MsgStats, Body: StatsMsg{
			Cached: []model.ObjectID{1, 69}, Policy: "VCover", Queries: 12, AtCache: 4,
			Metrics: []Sample{
				{Name: "delta_snapshot_age_seconds", Value: 1.5},
				{Name: "delta_recovered_warm", Value: 2},
			},
		}},
		// Batched birth-grant shapes: the multi-birth grant frame with
		// its Epoch tail, and one with the tail
		// elided (Epoch 0), so the fuzzer mutates both encodings.
		{Type: MsgBirthGrant, RequestID: 10, Body: BirthGrantMsg{Births: []model.Birth{
			{Object: model.Object{ID: 70, Size: cost.GB, Trixel: 321}, RA: 10.5, Dec: 42.0, Time: time.Hour},
			{Object: model.Object{ID: 71, Size: cost.MB, Trixel: 322}, RA: 11.5, Dec: -42.0, Time: 2 * time.Hour},
		}, Epoch: 3}},
		{Type: MsgBirthGrant, RequestID: 11, Body: BirthGrantMsg{Births: []model.Birth{
			{Object: model.Object{ID: 72, Size: cost.KB, Trixel: 323}, RA: 0.25, Dec: 0.5, Time: time.Minute},
		}, Accepted: 1}},
		// A router's aggregate, carrying the routing tier's samples:
		// result cache, coalescer, grant batches and K.
		{Type: MsgStats, Body: StatsMsg{Queries: 12, Metrics: []Sample{
			{Name: "delta_router_result_cache_hits_total", Value: 5},
			{Name: "delta_router_result_cache_misses_total", Value: 2},
			{Name: "delta_router_coalesced_total", Value: 3},
			{Name: "delta_router_grant_batches_total", Value: 1},
			{Name: "delta_router_replicas", Value: 2},
		}}},
		// Handshake shapes beyond the bare ones that lead the list: the
		// handshake is the first thing an unauthenticated peer controls,
		// so seed every role, a stale version, and a future one.
		{Type: MsgHello, Body: Hello{Role: "invalidations", Version: ProtoV3}},
		{Type: MsgHello, Body: Hello{Role: "pipeline", Version: 2}},
		{Type: MsgHelloAck, Body: HelloAck{Version: ProtoV3 + 1}},
		// The cache → repository I/O frames: a batched load and its
		// object-data reply (objects in request order), and an update
		// shipment with its reply.
		{Type: MsgLoadObject, RequestID: 12, Body: LoadObjectMsg{Objects: []model.ObjectID{5, 1, 69}}},
		{Type: MsgObjectData, RequestID: 12, Body: ObjectDataMsg{
			Objects: []model.Object{
				{ID: 5, Size: cost.GB, Trixel: 17},
				{ID: 1, Size: 50 * cost.MB, Trixel: 9},
				{ID: 69, Size: cost.MB, Trixel: 123},
			},
			Payload: []byte{4, 5, 6, 7},
		}},
		{Type: MsgShipUpdates, RequestID: 13, Body: ShipUpdatesMsg{IDs: []model.UpdateID{9, 10}}},
		{Type: MsgUpdates, RequestID: 13, Body: UpdatesMsg{
			Updates: []model.Update{
				{ID: 9, Object: 3, Cost: cost.KB, Time: time.Minute},
				{ID: 10, Object: 5, Cost: 2 * cost.KB, Time: 2 * time.Minute},
			},
			Payload: []byte{8, 9},
		}},
		// A narrowing reshard, with no Universe.
		{Type: MsgReshard, Body: ReshardMsg{
			Epoch: 1, Owned: []model.ObjectID{2, 3, 5},
		}},
	}
}

// universeFrames are the universe request and its reply, kept out of
// seedFrames so that valid-v3-stream, which pins every earlier layout,
// stays as it was; they have corpus files of their own.
func universeFrames() []Frame {
	return []Frame{
		{Type: MsgUniverse, RequestID: 14, Body: UniverseMsg{}},
		{Type: MsgUniverse, RequestID: 14, Body: UniverseMsg{
			Survey: catalog.Config{
				Seed: 2, NumObjects: 68, TotalSize: 800 * cost.GB,
				MinObjectSize: 50 * cost.MB, MaxObjectSize: 90 * cost.GB, Blobs: 10,
			},
			Births: []model.Birth{
				{Object: model.Object{ID: 69, Size: cost.GB, Trixel: 123}, RA: 182.5, Dec: -1.25, Time: time.Hour},
				{Object: model.Object{ID: 70, Size: cost.MB, Trixel: 321}, RA: 10.5, Dec: 42.0, Time: 2 * time.Hour},
			},
		}},
	}
}

// interestFrames are a subscriber's registration and the repository's
// echo of it, kept out of seedFrames like universeFrames.
func interestFrames() []Frame {
	return []Frame{
		{Type: MsgInterest, Body: InterestMsg{Objects: []model.ObjectID{3, 69, 1, 4096}}},
		{Type: MsgInterest, Body: InterestMsg{}},
	}
}

// interestDropFrames are a registration that also drops objects, its
// Drop list riding the frame tail, and one that only drops, kept out of
// seedFrames like universeFrames.
func interestDropFrames() []Frame {
	return []Frame{
		{Type: MsgInterest, Body: InterestMsg{Objects: []model.ObjectID{5, 70}, Drop: []model.ObjectID{3, 69, 4096}}},
		{Type: MsgInterest, Body: InterestMsg{Drop: []model.ObjectID{1}}},
	}
}

// streamNameFrames are a Hello that names its invalidation stream and a
// load that registers on it, each name riding its frame's tail, kept
// out of seedFrames like universeFrames.
func streamNameFrames() []Frame {
	return []Frame{
		{Type: MsgHello, Body: Hello{Role: "invalidations", Version: ProtoV3, Stream: 0x5eed_cafe_f00d}},
		{Type: MsgLoadObject, RequestID: 12, Body: LoadObjectMsg{Objects: []model.ObjectID{3, 69, 4096}, Stream: 0x5eed_cafe_f00d}},
	}
}

// oversizedRoleHello is a well-framed Hello whose Role length claims
// 2^40 bytes, far more than the frame has: decoding must fail on the
// length, before allocating for it.
func oversizedRoleHello() []byte {
	body := []byte{byte(MsgHello), 0}        // type, RequestID 0
	body = binary.AppendUvarint(body, 1<<40) // Role length
	body = append(body, "client"...)
	body = binary.AppendVarint(body, ProtoV3)
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// streamSeeds are the whole-stream cases both the fuzz target and the
// tier-1 replay start from.
func streamSeeds(t testing.TB) [][]byte {
	valid := encodeFrames(t, seedFrames()...)
	return [][]byte{
		valid,
		valid[:len(valid)/2], // truncated mid-stream
		valid[:3],            // truncated inside the length prefix
		{},                   // empty stream
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // absurd length prefix
		oversizedRoleHello(),
	}
}

// drainStream feeds data to Conn.Recv until the first error, which it
// returns: every frame either decodes or errors, never panics, and the
// input is finite so EOF terminates the loop. Every frame that decodes
// must reach the codec's fixed point (checkFixedPoint).
func drainStream(t testing.TB, data []byte) error {
	c := NewConn(readWriter{bytes.NewReader(data)})
	for {
		f, err := c.Recv()
		if err != nil {
			return err
		}
		checkFixedPoint(t, f)
	}
}

// checkFixedPoint requires a decoded frame's re-encoding to decode and
// re-encode to the same bytes. The first re-encoding may differ from
// the bytes the frame came from, since decoding normalises (an
// overlong varint, a bool byte other than 1, a tail of zeros), but
// after it nothing may change. Bytes are compared, not values, because
// NaN != NaN.
func checkFixedPoint(t testing.TB, f Frame) {
	t.Helper()
	first := encodeFrames(t, f)
	again, err := NewConn(readWriter{bytes.NewReader(first)}).Recv()
	if err != nil {
		t.Fatalf("%s: the re-encoding %x does not decode: %v", f.Type, first, err)
	}
	if second := encodeFrames(t, again); !bytes.Equal(first, second) {
		t.Fatalf("%s: re-encoding is no fixed point:\n first  %x\n second %x", f.Type, first, second)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to Conn.Recv: malformed,
// truncated, or bit-flipped streams — handshake and growth frames
// included — must surface as errors, never as panics or unbounded
// allocations. The checked-in seed corpus under
// testdata/fuzz/FuzzDecodeFrame holds hand-written malformed streams;
// the ones without "v3" in their name are gob-encoded, which is what a
// binary built before v3 became the only protocol sends, so to this
// decoder they are garbage that must be refused cleanly. The
// programmatic seeds below add every valid frame shape plus systematic
// truncations and flips.
func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range streamSeeds(f) {
		f.Add(seed)
	}
	for _, fr := range slices.Concat(seedFrames(), universeFrames(), interestFrames(), interestDropFrames(), streamNameFrames()) {
		one := encodeFrames(f, fr)
		f.Add(one)
		f.Add(one[:len(one)*2/3])                              // truncated inside the body
		for _, at := range []int{len(one) / 2, len(one) - 1} { // mid-frame, and the tail byte
			flipped := bytes.Clone(one)
			flipped[at] ^= 0x55
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		drainStream(t, data)
	})
}

// TestDecodeFrameSeedCorpus replays the programmatic seeds through the
// fuzz body on ordinary `go test` runs (the fuzz engine only replays
// testdata seeds), so the malformed-input contract is exercised in
// tier-1 CI too.
func TestDecodeFrameSeedCorpus(t *testing.T) {
	cases := streamSeeds(t)
	for _, fr := range slices.Concat(seedFrames(), universeFrames(), interestFrames(), interestDropFrames(), streamNameFrames()) {
		one := encodeFrames(t, fr)
		cases = append(cases, one)
		for cut := 1; cut < len(one); cut += 7 {
			cases = append(cases, one[:cut])
		}
		flipped := bytes.Clone(one)
		flipped[len(flipped)/2] ^= 0x55
		cases = append(cases, flipped)
	}
	for i, data := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("case %d: Recv panicked: %v", i, r)
				}
			}()
			drainStream(t, data)
		}()
	}
	if err := drainStream(t, oversizedRoleHello()); err == nil || err == io.EOF {
		t.Errorf("a Hello whose Role claims 2^40 bytes decoded (err = %v), want a slice-length error", err)
	}
}

// TestWriteV3FuzzCorpus regenerates the checked-in v3 seed-corpus
// files (testdata/fuzz/FuzzDecodeFrame/*v3*) when WRITE_V3_CORPUS is
// set; it documents their provenance and skips otherwise. The files
// are deterministic renderings of the programmatic seeds, so the fuzz
// engine starts from structurally valid v3 streams even before its
// first minimization.
func TestWriteV3FuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_V3_CORPUS") == "" {
		t.Skip("set WRITE_V3_CORPUS=1 to regenerate the v3 seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	valid := encodeFrames(t, seedFrames()...)
	oneBirth := encodeFrames(t, seedFrames()[5]) // MsgObjectBirth
	flipped := bytes.Clone(oneBirth)
	flipped[len(flipped)/2] ^= 0x55
	traced := encodeFrames(t, seedFrames()[12]) // QueryResultMsg with TraceID+Spans tail
	tracedFlip := bytes.Clone(traced)
	tracedFlip[len(tracedFlip)-2] ^= 0x55        // corrupt inside the trace tail
	horizon := encodeFrames(t, seedFrames()[13]) // ReshardMsg with an Owned list alone
	horizonFlip := bytes.Clone(horizon)
	horizonFlip[len(horizonFlip)-1] ^= 0x55    // corrupt the last byte
	grant := encodeFrames(t, seedFrames()[15]) // BirthGrantMsg with the Epoch tail
	grantFlip := bytes.Clone(grant)
	grantFlip[len(grantFlip)/2] ^= 0x55             // corrupt mid-batch
	objectData := encodeFrames(t, seedFrames()[22]) // multi-object ObjectDataMsg
	objectDataFlip := bytes.Clone(objectData)
	objectDataFlip[len(objectDataFlip)/2] ^= 0x55    // corrupt mid-batch
	universe := encodeFrames(t, universeFrames()...) // request and reply
	universeFlip := bytes.Clone(universe)
	universeFlip[len(universeFlip)/4] ^= 0x55        // corrupt inside the reply's survey config
	interest := encodeFrames(t, interestFrames()...) // registration and echo
	interestFlip := bytes.Clone(interest)
	interestFlip[len(interestFlip)/3] ^= 0x55                // corrupt inside the registered IDs
	interestDrop := encodeFrames(t, interestDropFrames()[0]) // registration with the Drop tail
	interestDropFlip := bytes.Clone(interestDrop)
	interestDropFlip[len(interestDropFlip)-2] ^= 0x55     // corrupt inside the Drop tail
	helloStream := encodeFrames(t, streamNameFrames()[0]) // Hello with the Stream tail
	helloStreamFlip := bytes.Clone(helloStream)
	helloStreamFlip[len(helloStreamFlip)-2] ^= 0x55      // corrupt inside the Stream tail
	loadStream := encodeFrames(t, streamNameFrames()[1]) // load with the Stream tail
	loadStreamFlip := bytes.Clone(loadStream)
	loadStreamFlip[len(loadStreamFlip)-2] ^= 0x55 // corrupt inside the Stream tail
	entries := map[string][]byte{
		"valid-v3-stream":              valid,
		"truncated-v3-birth":           oneBirth[:len(oneBirth)*2/3],
		"bitflip-v3-birth":             flipped,
		"v3-absurd-length":             {0xff, 0xff, 0xff, 0x7f, 0x01},
		"valid-v3-traced":              traced,
		"truncated-v3-traced":          traced[:len(traced)*3/4],
		"bitflip-v3-traced":            tracedFlip,
		"valid-v3-reshard-horizon":     horizon,
		"truncated-v3-reshard-horizon": horizon[:len(horizon)-1], // stream ends inside the Owned list
		"bitflip-v3-reshard-horizon":   horizonFlip,
		"valid-v3-grant":               grant,
		"truncated-v3-grant":           grant[:len(grant)*2/3], // stream ends inside the birth batch
		"bitflip-v3-grant":             grantFlip,
		"valid-v3-object-data":         objectData,
		"truncated-v3-object-data":     objectData[:len(objectData)*2/3], // stream ends inside the object batch
		"bitflip-v3-object-data":       objectDataFlip,
		"valid-v3-universe":            universe,
		"truncated-v3-universe":        universe[:len(universe)*2/3], // stream ends inside the reply's births
		"bitflip-v3-universe":          universeFlip,
		"valid-v3-interest":            interest,
		"truncated-v3-interest":        interest[:len(interest)/2], // stream ends inside the registered IDs
		"bitflip-v3-interest":          interestFlip,
		"valid-v3-interest-drop":       interestDrop,
		"truncated-v3-interest-drop":   interestDrop[:len(interestDrop)-1], // stream ends inside the Drop tail
		"bitflip-v3-interest-drop":     interestDropFlip,
		"valid-v3-hello-stream":        helloStream,
		"truncated-v3-hello-stream":    helloStream[:len(helloStream)-1], // stream ends inside the Stream tail
		"bitflip-v3-hello-stream":      helloStreamFlip,
		"valid-v3-load-stream":         loadStream,
		"truncated-v3-load-stream":     loadStream[:len(loadStream)-1], // stream ends inside the Stream tail
		"bitflip-v3-load-stream":       loadStreamFlip,
	}
	for name, data := range entries {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readCorpusEntry returns the bytes a single-value []byte corpus file
// holds, as the writers above render them.
func readCorpusEntry(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeFrame", name))
	if err != nil {
		t.Fatal(err)
	}
	quoted, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	quoted, ok2 := strings.CutSuffix(quoted, ")\n")
	data, err := strconv.Unquote(quoted)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s is not a []byte corpus entry: %v", name, err)
	}
	return []byte(data)
}

// TestV3CorpusPinsWireBytes pins the wire format: the checked-in
// valid-v3-stream must equal what the seed frames encode to, so a
// change to any frame layout fails here, and the corpus cannot go stale
// unnoticed. A deliberate format change regenerates the file with
// WRITE_V3_CORPUS=1.
func TestV3CorpusPinsWireBytes(t *testing.T) {
	want := readCorpusEntry(t, "valid-v3-stream")
	if got := encodeFrames(t, seedFrames()...); !bytes.Equal(got, want) {
		t.Fatalf("seed frames encode to %d bytes that differ from the %d in valid-v3-stream:\n got  %x\n want %x",
			len(got), len(want), got, want)
	}
}
