package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deltacache/delta/internal/model"
)

// File names inside a store directory.
const (
	snapshotFile = "snapshot.dp"
	journalFile  = "journal.dp"
	tempSuffix   = ".tmp"
)

// DefaultFsyncInterval is the journal's fsync batching window: an
// appended record is durable within this long (sooner under burst
// load, since a full batch also syncs). Snapshots always sync before
// rename regardless.
const DefaultFsyncInterval = 100 * time.Millisecond

// fsyncBatchRecords forces a sync once this many records are pending
// even inside the batching window, bounding the loss window by count
// as well as time.
const fsyncBatchRecords = 256

// Options parameterizes a Store.
type Options struct {
	// Dir is the store directory; created if absent.
	Dir string
	// Logf logs recovery events (torn tails, ignored journals); nil
	// silences.
	Logf func(format string, args ...any)
	// SyncObserve, when non-nil, is called with the wall-clock duration
	// of every journal fsync (batched or forced) — the hook the owning
	// node's fsync-latency histogram observes through. Called with the
	// store lock held; must not block.
	SyncObserve func(time.Duration)
}

// Store is one node's durability directory: a snapshot file and the
// journal extending it. All methods are safe for concurrent use.
type Store struct {
	opts Options

	mu         sync.Mutex
	journal    *os.File
	pending    int  // journal records written since the last sync
	dirty      bool // journal bytes not yet synced
	generation uint64
	closed     bool

	records  atomic.Int64 // journal records appended since the last reset
	lastSnap atomic.Int64 // unix nanos of the newest snapshot

	flushWake chan struct{}
	flushDone chan struct{}
}

// Open opens (creating if necessary) the store directory and starts
// the journal fsync batcher. Call Recover before writing anything to
// get the prior incarnation's state.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("persist: store directory required")
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &Store{
		opts:      opts,
		flushWake: make(chan struct{}, 1),
		flushDone: make(chan struct{}),
	}
	s.lastSnap.Store(time.Now().UnixNano())
	go s.flushLoop()
	return s, nil
}

// Recover loads the snapshot (if any) and replays the journal over it,
// tolerating a truncated or corrupt journal tail: replay stops at the
// first bad record and reports how much survived. It returns nil state
// when the directory holds no usable prior state (fresh start). A
// snapshot that fails its own CRC is an error — unlike a journal tail,
// a torn snapshot means the atomic-replace contract was violated
// outside a crash window, and silently starting cold would hide it.
func (s *Store) Recover() (*State, error) {
	snapRaw, err := os.ReadFile(filepath.Join(s.opts.Dir, snapshotFile))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("persist: read snapshot: %w", err)
	}
	var st *State
	if len(snapRaw) > 0 {
		st, err = decodeSnapshotFile(snapRaw)
		if err != nil {
			return nil, err
		}
	}

	jRaw, err := os.ReadFile(filepath.Join(s.opts.Dir, journalFile))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("persist: read journal: %w", err)
	}
	var gen uint64
	if st != nil {
		gen = st.generation
	}
	if len(jRaw) > 0 {
		if st == nil {
			// A journal with no snapshot still replays (the node crashed
			// before its first snapshot ever landed; generation 0).
			st = &State{}
		}
		applied, tailErr := replayJournal(jRaw, gen, st)
		if tailErr != nil {
			s.opts.Logf("persist: journal tail dropped after %d records: %v", applied, tailErr)
		}
	}
	// Future snapshots extend the recovered lineage.
	s.mu.Lock()
	s.generation = gen
	s.mu.Unlock()
	return st, nil
}

// decodeSnapshotFile validates magic, framing and CRC of a snapshot
// file and decodes its state. The generation rides in the header
// record so WriteSnapshot can link the next journal to it — but
// Recover tolerates any generation (the journal's must match).
func decodeSnapshotFile(raw []byte) (*State, error) {
	if bytes.HasPrefix(raw, oldSnapshotMagic) {
		return nil, fmt.Errorf("persist: snapshot is in the retired %s format; delete the data directory to start cold", oldSnapshotMagic)
	}
	gen, rest, err := readHeader(raw, snapshotMagic, "snapshot")
	if err != nil {
		return nil, err
	}
	typ, payload, rest, err := readRecord(rest)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot: %w", err)
	}
	if typ != recSnapshot {
		return nil, fmt.Errorf("persist: snapshot body has record type %d", typ)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after snapshot record", len(rest))
	}
	st := &State{generation: gen}
	if err := decode(payload, st.walk); err != nil {
		return nil, err
	}
	return st, nil
}

// replayJournal folds a journal's clean prefix into st. The journal's
// header generation must match gen... see Store.Recover for how the
// caller learns the snapshot's generation.
func replayJournal(raw []byte, wantGen uint64, st *State) (applied int, tailErr error) {
	gen, b, err := readHeader(raw, journalMagic, "journal")
	if err != nil {
		return 0, err
	}
	if gen != wantGen {
		// A crash between snapshot rename and journal reset leaves the
		// previous generation's journal behind; its records are already
		// folded into the snapshot (or superseded by it), so replaying
		// them would be wrong. Ignore the whole journal.
		return 0, fmt.Errorf("persist: journal generation %d does not extend snapshot generation %d", gen, wantGen)
	}
	for len(b) > 0 {
		typ, payload, rest, err := readRecord(b)
		if err != nil {
			return applied, err // torn tail: keep the clean prefix
		}
		if err := st.apply(typ, payload); err != nil {
			return applied, err
		}
		applied++
		b = rest
	}
	return applied, nil
}

// WriteSnapshot atomically replaces the snapshot with st and resets
// the journal to extend it. Ordering guarantees a crash at any point
// recovers to either the old snapshot plus its full journal or the new
// snapshot alone: the journal is synced first, the temp snapshot is
// synced before rename, the directory is synced after, and only then
// is the journal reset under a new generation. A state whose record
// exceeds maxRecord is refused, and the previous snapshot and journal
// stay as they were.
func (s *Store) WriteSnapshot(st *State) error {
	return s.writeSnapshot(encode(make([]byte, 0, 16+40*len(st.Births)+8*len(st.Resident)), st.walk))
}

// writeSnapshot lands an encoded state as the new snapshot.
func (s *Store) writeSnapshot(payload []byte) error {
	if err := checkRecord(payload); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store closed")
	}
	if err := s.syncJournalLocked(); err != nil {
		return err
	}

	gen := s.generation + 1
	out := frameRecord(header(snapshotMagic, gen), recSnapshot, payload)

	path := filepath.Join(s.opts.Dir, snapshotFile)
	tmp := path + tempSuffix
	if err := writeFileSync(tmp, out); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: rename snapshot: %w", err)
	}
	if err := syncDir(s.opts.Dir); err != nil {
		return err
	}
	s.generation = gen
	if err := s.resetJournalLocked(); err != nil {
		return err
	}
	s.lastSnap.Store(time.Now().UnixNano())
	return nil
}

// writeFileSync writes data to path and fsyncs it before close.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("persist: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: sync %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: sync dir: %w", err)
	}
	return nil
}

// resetJournalLocked truncates the journal and writes a fresh header
// bound to the current generation. mu must be held.
func (s *Store) resetJournalLocked() error {
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	f, err := os.OpenFile(filepath.Join(s.opts.Dir, journalFile), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(header(journalMagic, s.generation)); err != nil {
		f.Close()
		return fmt.Errorf("persist: journal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: sync journal: %w", err)
	}
	s.journal = f
	s.pending, s.dirty = 0, false
	s.records.Store(0)
	return nil
}

// append writes one framed record to the journal, syncing when the
// batch fills (the time-based batcher covers the rest). A record over
// maxRecord is refused and the journal stays as it was.
func (s *Store) append(typ byte, payload []byte) error {
	if err := checkRecord(payload); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store closed")
	}
	if s.journal == nil {
		if err := s.resetJournalLocked(); err != nil {
			return err
		}
	}
	if _, err := s.journal.Write(frameRecord(nil, typ, payload)); err != nil {
		return fmt.Errorf("persist: journal append: %w", err)
	}
	s.records.Add(1)
	s.pending++
	s.dirty = true
	if s.pending >= fsyncBatchRecords {
		return s.syncJournalLocked()
	}
	select {
	case s.flushWake <- struct{}{}:
	default:
	}
	return nil
}

// syncJournalLocked fsyncs pending journal bytes. mu must be held.
func (s *Store) syncJournalLocked() error {
	if s.journal == nil || !s.dirty {
		return nil
	}
	start := time.Now()
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("persist: sync journal: %w", err)
	}
	if s.opts.SyncObserve != nil {
		s.opts.SyncObserve(time.Since(start))
	}
	s.pending, s.dirty = 0, false
	return nil
}

// flushLoop is the fsync batcher: it wakes on the first append of a
// batch, sleeps the batching window, and syncs whatever accumulated.
func (s *Store) flushLoop() {
	defer close(s.flushDone)
	for range s.flushWake {
		time.Sleep(DefaultFsyncInterval)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		if err := s.syncJournalLocked(); err != nil {
			s.opts.Logf("%v", err)
		}
		s.mu.Unlock()
	}
}

// AppendBirth journals one object birth the repository ingested.
func (s *Store) AppendBirth(b model.Birth) error {
	return s.appendEntry(entry{typ: recBirth, birth: b})
}

// AppendAdmit journals one object admitted to the resident set.
func (s *Store) AppendAdmit(id model.ObjectID) error {
	return s.appendEntry(entry{typ: recAdmit, id: id})
}

// AppendEvict journals one object evicted from the resident set.
func (s *Store) AppendEvict(id model.ObjectID) error {
	return s.appendEntry(entry{typ: recEvict, id: id})
}

func (s *Store) appendEntry(e entry) error { return s.append(e.typ, encode(nil, e.walk)) }

// JournalRecords reports how many records the journal holds: those
// appended since the last snapshot, which is what a crash right now
// would replay. A nil Store (persistence off) reports 0.
func (s *Store) JournalRecords() int64 {
	if s == nil {
		return 0
	}
	return s.records.Load()
}

// SnapshotAge reports how long ago the newest snapshot landed (since
// open, when none has yet); 0 on a nil Store.
func (s *Store) SnapshotAge() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - s.lastSnap.Load())
}

// Close flushes and syncs the journal and stops the batcher. It does
// NOT write a final snapshot — that is the owning node's job (it knows
// its final state); see cache.Middleware.Close.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.syncJournalLocked()
	if s.journal != nil {
		if cerr := s.journal.Close(); err == nil {
			err = cerr
		}
		s.journal = nil
	}
	s.closed = true
	close(s.flushWake)
	s.mu.Unlock()
	<-s.flushDone
	return err
}
