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
	var head netproto.Encoder
	head.Uvarint(gen)
	out := append([]byte(nil), journalMagic...)
	out = frameRecord(out, recHeader, head.Bytes())
	var b netproto.Encoder
	b.Birth(&model.Birth{
		Object: model.Object{ID: 69, Size: cost.GB, Trixel: 123},
		RA:     182.5, Dec: -1.25, Time: time.Hour,
	})
	out = frameRecord(out, recBirth, b.Bytes())
	var admit netproto.Encoder
	admit.Varint(69)
	out = frameRecord(out, recAdmit, admit.Bytes())
	var evict netproto.Encoder
	evict.Varint(69)
	return frameRecord(out, recEvict, evict.Bytes())
}

// seedSnapshot renders a valid snapshot file for the same treatment.
func seedSnapshot() []byte {
	var head netproto.Encoder
	head.Uvarint(1)
	out := append([]byte(nil), snapshotMagic...)
	out = frameRecord(out, recHeader, head.Bytes())
	return frameRecord(out, recSnapshot, encodeState(testState()))
}

// replayArbitrary feeds one byte stream through both decode paths — as
// a journal (over an empty state and over a populated one) and as a
// snapshot file. Malformed, truncated, or bit-flipped input must
// surface as an error or a cleanly dropped tail, never as a panic or
// an unbounded allocation.
func replayArbitrary(data []byte) {
	st := &State{}
	_, _ = replayJournal(data, 0, st)
	st2 := testState()
	_, _ = replayJournal(data, 1, st2)
	_, _ = decodeSnapshotFile(data)
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
		replayArbitrary(data)
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
			replayArbitrary(data)
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
