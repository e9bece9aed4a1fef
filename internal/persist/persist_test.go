package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

func testState() *State {
	return &State{
		Births: []model.Birth{
			{Object: model.Object{ID: 69, Size: 2 * cost.GB, Trixel: 41}, RA: 182.5, Dec: -1.25, Time: time.Hour},
		},
		Resident: []model.ObjectID{69},
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if st, err := s.Recover(); err != nil || st != nil {
		t.Fatalf("fresh store recovered (%+v, %v), want nil, nil", st, err)
	}
	want := testState()
	if err := s.WriteSnapshot(want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	defer s2.Close()
	got, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no state recovered")
	}
	assertState(t, got, want)
}

func assertState(t *testing.T, got, want *State) {
	t.Helper()
	if len(got.Births) != len(want.Births) {
		t.Fatalf("births %v, want %v", got.Births, want.Births)
	}
	for i := range want.Births {
		if got.Births[i] != want.Births[i] {
			t.Errorf("births[%d] = %+v, want %+v", i, got.Births[i], want.Births[i])
		}
	}
	assertIDs(t, "resident", got.Resident, want.Resident)
}

func assertIDs(t *testing.T, what string, got, want []model.ObjectID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func TestJournalReplayOverSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testState()); err != nil {
		t.Fatal(err)
	}
	newborn := model.Birth{Object: model.Object{ID: 70, Size: cost.MB, Trixel: 42}, RA: 10, Dec: 20, Time: 2 * time.Hour}
	if err := s.AppendBirth(newborn); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAdmit(70); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAdmit(1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvict(69); err != nil {
		t.Fatal(err)
	}
	if got := s.JournalRecords(); got != 4 {
		t.Errorf("JournalRecords = %d, want 4", got)
	}
	s.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	got, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	want := testState()
	want.Births = append(want.Births, newborn)
	want.Resident = []model.ObjectID{70, 1}
	assertState(t, got, want)
}

// TestTruncatedTailRecovers pins the crash-mid-append contract: a
// journal cut anywhere keeps its clean prefix and never errors the
// recovery.
func TestTruncatedTailRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(&State{}); err != nil {
		t.Fatal(err)
	}
	for id := model.ObjectID(1); id <= 10; id++ {
		if err := s.AppendAdmit(id); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	path := filepath.Join(dir, journalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(raw) - 1; cut > 0; cut -= 3 {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir)
		st, err := s2.Recover()
		s2.Close()
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if st == nil {
			t.Fatalf("cut at %d: no state", cut)
		}
		if len(st.Resident) > 10 {
			t.Fatalf("cut at %d: %d residents from 10 appends", cut, len(st.Resident))
		}
		// The clean prefix must be exactly the residents 1..k.
		for i, id := range st.Resident {
			if id != model.ObjectID(i+1) {
				t.Fatalf("cut at %d: resident[%d] = %d", cut, i, id)
			}
		}
	}
}

// TestBitFlippedTailRecovers pins CRC protection: flipping any byte of
// the journal drops that record (and the records after it) but never
// panics or corrupts the prefix before it.
func TestBitFlippedTailRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(&State{}); err != nil {
		t.Fatal(err)
	}
	for id := model.ObjectID(1); id <= 8; id++ {
		if err := s.AppendAdmit(id); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	path := filepath.Join(dir, journalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := len(journalMagic); pos < len(raw); pos += 5 {
		flipped := bytes.Clone(raw)
		flipped[pos] ^= 0x55
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir)
		st, err := s2.Recover()
		s2.Close()
		if err != nil && st == nil {
			// A flip inside the header region may invalidate the whole
			// journal; the snapshot must still recover on its own.
			continue
		}
		if st == nil {
			t.Fatalf("flip at %d: no state and no error", pos)
		}
		for i, id := range st.Resident {
			if id != model.ObjectID(i+1) {
				t.Fatalf("flip at %d: resident[%d] = %d (prefix corrupted)", pos, i, id)
			}
		}
	}
}

// TestStaleGenerationJournalIgnored pins the crash window between
// snapshot rename and journal reset: a journal from the previous
// generation must be ignored, not replayed onto the newer snapshot.
func TestStaleGenerationJournalIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(&State{}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAdmit(5); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Keep the generation-1 journal, then land a generation-2 snapshot
	// as if the crash hit after rename but before journal reset.
	staleJournal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteSnapshot(&State{Resident: []model.ObjectID{9}}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if err := os.WriteFile(filepath.Join(dir, journalFile), staleJournal, 0o644); err != nil {
		t.Fatal(err)
	}

	s3 := openStore(t, dir)
	defer s3.Close()
	st, err := s3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	assertIDs(t, "resident", st.Resident, []model.ObjectID{9})
}

// TestTempSnapshotLeftoverIgnored pins atomic replacement: a temp file
// left by a crash mid-write never shadows the real snapshot.
func TestTempSnapshotLeftoverIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(&State{Resident: []model.ObjectID{7}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	tmp := filepath.Join(dir, snapshotFile+tempSuffix)
	if err := os.WriteFile(tmp, []byte("torn half-written snapsho"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	defer s2.Close()
	st, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no state recovered")
	}
	assertIDs(t, "resident", st.Resident, []model.ObjectID{7})
}

// TestCorruptSnapshotErrors pins the asymmetry with the journal: a
// snapshot failing its CRC is an error, not a silent cold start.
func TestCorruptSnapshotErrors(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testState()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, snapshotFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-6] ^= 0x55
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	defer s2.Close()
	if _, err := s2.Recover(); err == nil {
		t.Fatal("corrupt snapshot recovered without error")
	}
}

// TestSnapshotAgeAndCounters sanity-checks the observability hooks.
func TestSnapshotAgeAndCounters(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	if err := s.WriteSnapshot(&State{}); err != nil {
		t.Fatal(err)
	}
	if age := s.SnapshotAge(); age < 0 || age > time.Minute {
		t.Errorf("SnapshotAge = %v", age)
	}
	if err := s.AppendAdmit(1); err != nil {
		t.Fatal(err)
	}
	if got := s.JournalRecords(); got != 1 {
		t.Errorf("JournalRecords = %d, want 1", got)
	}
}

// TestJournalRecordsResetAtSnapshot: JournalRecords counts what the
// journal holds, so a snapshot, which truncates the journal, zeroes it.
func TestJournalRecordsResetAtSnapshot(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	for _, id := range []model.ObjectID{1, 2} {
		if err := s.AppendAdmit(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSnapshot(&State{Resident: []model.ObjectID{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvict(1); err != nil {
		t.Fatal(err)
	}
	if got := s.JournalRecords(); got != 1 {
		t.Errorf("JournalRecords = %d after a snapshot and one append, want 1", got)
	}
}

// TestOverCapRecordRefused: a snapshot or journal record just over
// maxRecord is refused when written, and the previous snapshot and
// journal stay as they were, so recovery never meets a record it would
// report as corrupt.
func TestOverCapRecordRefused(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testState()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAdmit(1); err != nil {
		t.Fatal(err)
	}
	files := func() [2][]byte {
		t.Helper()
		var out [2][]byte
		for i, name := range []string{snapshotFile, journalFile} {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = raw
		}
		return out
	}
	before := files()
	// The record is the type byte plus the payload: one byte over the cap.
	over := make([]byte, maxRecord)
	if err := s.append(recBirth, over); err == nil {
		t.Error("journal accepted a record over the cap")
	}
	if err := s.writeSnapshot(over); err == nil {
		t.Error("snapshot accepted a record over the cap")
	}
	over = nil
	if got := s.JournalRecords(); got != 1 {
		t.Errorf("JournalRecords = %d after a refused append, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after := files(); !bytes.Equal(after[0], before[0]) || !bytes.Equal(after[1], before[1]) {
		t.Error("a refused record changed the snapshot or the journal")
	}
	s2 := openStore(t, dir)
	defer s2.Close()
	got, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	want := testState()
	want.Resident = append(want.Resident, 1)
	assertState(t, got, want)
}

// TestStateListBoundAdmitsShortestElements pins the lower edge of the
// slice-length guard on the snapshot record: a state whose lists hold
// one to three zero-value births and IDs, each at its shortest
// encoding, must round-trip, with each list alone last in the record
// and with both filled.
func TestStateListBoundAdmitsShortestElements(t *testing.T) {
	for n := 1; n <= 3; n++ {
		births, ids := make([]model.Birth, n), make([]model.ObjectID, n)
		for _, want := range []*State{{Births: births}, {Resident: ids}, {Births: births, Resident: ids}} {
			got := &State{}
			if err := decode(encode(nil, want.walk), got.walk); err != nil {
				t.Fatalf("%d births, %d residents: %v", len(want.Births), len(want.Resident), err)
			}
			assertState(t, got, want)
		}
	}
}
