package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// seedJournal renders a valid journal stream (magic, generation-gen
// header, one record of each type) for the fuzzer to mutate.
func seedJournal(gen uint64) []byte {
	out := header(journalMagic, gen)
	for _, e := range []entry{
		{typ: recBirth, birth: model.Birth{
			Object: model.Object{ID: 69, Size: cost.GB, Trixel: 123},
			RA:     182.5, Dec: -1.25, Time: time.Hour,
		}},
		{typ: recAdmit, id: 69},
		{typ: recEvict, id: 69},
	} {
		out = frameRecord(out, e.typ, encode(nil, e.walk))
	}
	return out
}

// seedSnapshot renders a valid snapshot file for the same treatment.
func seedSnapshot() []byte {
	return frameRecord(header(snapshotMagic, 1), recSnapshot, encode(nil, testState().walk))
}

// replayArbitrary feeds one byte stream through both decode paths — as
// a journal (over an empty state and over a populated one) and as a
// snapshot file. Malformed, truncated, or bit-flipped input must
// surface as an error or a cleanly dropped tail, never as a panic or
// an unbounded allocation, and the snapshot state and every journal
// record that decodes must reach its layout's fixed point.
func replayArbitrary(t testing.TB, data []byte) {
	st := &State{}
	_, _ = replayJournal(data, 0, st)
	st2 := testState()
	_, _ = replayJournal(data, 1, st2)
	if snap, err := decodeSnapshotFile(data); err == nil {
		if err := fixedPoint(snap.walk, (&State{}).walk); err != nil {
			t.Fatalf("snapshot state: %v", err)
		}
	}
	_, records, err := readHeader(data, journalMagic, "journal")
	for err == nil && len(records) > 0 {
		var typ byte
		var payload []byte
		typ, payload, records, err = readRecord(records)
		e := entry{typ: typ}
		if err != nil || decode(payload, e.walk) != nil {
			continue
		}
		if err := fixedPoint(e.walk, (&entry{typ: typ}).walk); err != nil {
			t.Fatalf("journal record type %d: %v", typ, err)
		}
	}
}

// fixedPoint requires what walk encodes to decode through next, a
// fresh value's walk, and encode again to the same bytes. Decoding may
// normalise (an overlong varint), so a decoded value's encoding need
// not equal the bytes it came from, but after that nothing may change.
// Bytes are compared, not values, because NaN != NaN.
func fixedPoint(walk, next func(*netproto.Cursor)) error {
	first := encode(nil, walk)
	if err := decode(first, next); err != nil {
		return fmt.Errorf("the re-encoding %x does not decode: %w", first, err)
	}
	if second := encode(nil, next); !bytes.Equal(first, second) {
		return fmt.Errorf("re-encoding is no fixed point:\n first  %x\n second %x", first, second)
	}
	return nil
}

// FuzzJournalReplay is the durability twin of netproto's
// FuzzDecodeFrame: arbitrary bytes as journal or snapshot content.
// The checked-in corpus under testdata/fuzz/FuzzJournalReplay holds
// deterministic valid, truncated, and CRC-corrupted streams;
// the programmatic seeds below add systematic cuts and flips.
func FuzzJournalReplay(f *testing.F) {
	valid := seedJournal(0)
	snap := seedSnapshot()
	f.Add(valid)
	f.Add(snap)
	f.Add(seedJournal(1))                           // wrong-generation journal
	f.Add(valid[:len(valid)/2])                     // truncated mid-record
	f.Add(valid[:len(journalMagic)+2])              // truncated inside the header
	f.Add([]byte{})                                 // empty file
	f.Add(append([]byte("DPJ1"), 0xff, 0xff, 0xff)) // absurd length prefix
	for _, seed := range [][]byte{valid, snap} {
		flipped := bytes.Clone(seed)
		flipped[len(flipped)/2] ^= 0x55
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		replayArbitrary(t, data)
	})
}

// TestJournalReplaySeedCorpus replays the programmatic seeds (plus
// systematic truncations and single-byte flips of each) through the
// fuzz body on ordinary `go test` runs, so the malformed-input
// contract is exercised in tier-1 CI exactly like netproto's
// TestDecodeFrameSeedCorpus.
func TestJournalReplaySeedCorpus(t *testing.T) {
	valid := seedJournal(0)
	snap := seedSnapshot()
	cases := [][]byte{
		valid,
		snap,
		seedJournal(1),
		{},
		append([]byte("DPJ1"), 0xff, 0xff, 0xff),
		append([]byte("DPS2"), 0xff, 0xff, 0xff),
	}
	for _, seed := range [][]byte{valid, snap} {
		for cut := 1; cut < len(seed); cut += 3 {
			cases = append(cases, seed[:cut])
		}
		for pos := 0; pos < len(seed); pos += 3 {
			flipped := bytes.Clone(seed)
			flipped[pos] ^= 0x55
			cases = append(cases, flipped)
		}
	}
	for i, data := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("case %d: replay panicked: %v", i, r)
				}
			}()
			replayArbitrary(t, data)
		}()
	}
	// The valid streams must actually decode, or the corpus is testing
	// nothing: the journal replays all three records, the snapshot
	// round-trips.
	st := &State{}
	if applied, err := replayJournal(valid, 0, st); err != nil || applied != 3 {
		t.Fatalf("valid journal: applied %d, err %v", applied, err)
	}
	if len(st.Births) != 1 || len(st.Resident) != 0 {
		t.Fatalf("valid journal state: %+v", st)
	}
	if _, err := decodeSnapshotFile(snap); err != nil {
		t.Fatalf("valid snapshot: %v", err)
	}
	// A snapshot in the retired DPS1 format is refused by name, never
	// misread as the current one.
	old := append(bytes.Clone(oldSnapshotMagic), snap[len(snapshotMagic):]...)
	if _, err := decodeSnapshotFile(old); err == nil || !strings.Contains(err.Error(), "DPS1") {
		t.Fatalf("DPS1 snapshot: err %v, want one naming the old format", err)
	}
	// A CRC-corrupted snapshot must error (never silently half-load).
	corrupt := bytes.Clone(snap)
	corrupt[len(corrupt)-2] ^= 0x55
	if _, err := decodeSnapshotFile(corrupt); err == nil {
		t.Fatal("corrupt snapshot decoded without error")
	}
}

// TestWritePersistFuzzCorpus regenerates the checked-in seed-corpus
// files under testdata/fuzz/FuzzJournalReplay when WRITE_PERSIST_CORPUS
// is set; it documents their provenance and skips otherwise (the same
// arrangement as netproto's TestWriteV3FuzzCorpus).
func TestWritePersistFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_PERSIST_CORPUS") == "" {
		t.Skip("set WRITE_PERSIST_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	valid := seedJournal(0)
	snap := seedSnapshot()
	flippedJournal := bytes.Clone(valid)
	flippedJournal[len(flippedJournal)/2] ^= 0x55
	flippedSnap := bytes.Clone(snap)
	flippedSnap[len(flippedSnap)-2] ^= 0x55
	entries := map[string][]byte{
		"valid-journal":        valid,
		"valid-snapshot":       snap,
		"truncated-journal":    valid[:len(valid)*2/3],
		"bitflip-journal":      flippedJournal,
		"corrupt-crc-snapshot": flippedSnap,
		"wrong-generation":     seedJournal(7),
		"absurd-length":        append([]byte("DPJ1"), 0xff, 0xff, 0xff, 0x7f, 0x01),
	}
	for name, data := range entries {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
