package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// readCorpusEntry returns the bytes a single-value []byte corpus file
// holds, as TestWritePersistFuzzCorpus renders them.
func readCorpusEntry(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzJournalReplay", name))
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

// TestCorpusPinsDiskBytes pins the on-disk formats: the checked-in
// valid-journal and valid-snapshot must equal what the seed helpers
// write, so a change to any record layout fails here, and the corpus
// cannot go stale unnoticed. A deliberate format change regenerates the
// files with WRITE_PERSIST_CORPUS=1.
func TestCorpusPinsDiskBytes(t *testing.T) {
	for name, got := range map[string][]byte{
		"valid-journal":  seedJournal(0),
		"valid-snapshot": seedSnapshot(),
	} {
		if want := readCorpusEntry(t, name); !bytes.Equal(got, want) {
			t.Errorf("%s: the seed encodes to %d bytes that differ from the %d checked in:\n got  %x\n want %x",
				name, len(got), len(want), got, want)
		}
	}
}
