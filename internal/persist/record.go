// Package persist is the durability layer under a Delta node: a
// snapshot file holding what only the node knows (the repository's
// births, a cache's resident set) plus an append-only journal recording
// the births or admission/eviction decisions made since that snapshot.
// Together they let a restarted repository recover its grown universe
// and a restarted cache rejoin warm — its policy is offered the
// recovered residents it owns through core.Warmable, the boundary a live
// reshard's warm arrivals also cross — instead of paying the full
// warmup the caching policies exist to avoid.
//
// Each record payload's layout is one walk over a netproto.Cursor,
// which both writes and reads it, so objects, births and ID lists have
// the same bytes on disk as on the wire (no gob): each record is a
// little-endian uint32 length prefix over a one-byte record type plus
// the payload, followed by a little-endian uint32 CRC-32C over the
// type and payload. Snapshots are replaced atomically (write temp,
// fsync, rename, fsync dir); the journal is append-only with batched
// fsyncs and tolerates a truncated or corrupt tail, so a crash
// mid-write never loses more than the records after the last clean
// one. A generation counter
// links the journal to the snapshot it extends: a crash between
// snapshot rename and journal reset leaves a stale-generation journal
// that replay ignores instead of misapplying. docs/PERSISTENCE.md
// specifies the formats and the recovery semantics in full.
package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/deltacache/delta/internal/netproto"
)

// Record types. The zero value is invalid so a zero-filled tail never
// parses as a record.
const (
	// recHeader opens a journal: payload is the uvarint generation of
	// the snapshot this journal extends.
	recHeader byte = iota + 1
	// recSnapshot is a snapshot file's single state record.
	recSnapshot
	// recBirth journals one birth the repository ingested (full fidelity:
	// metadata plus sky position and publication time).
	recBirth
	// recAdmit journals one object admitted to the resident set.
	recAdmit
	// recEvict journals one object evicted from the resident set.
	recEvict
)

// Magic prefixes distinguish the two files (and their format version).
// DPS1 snapshots also held the reshard epoch, the owned set and the
// whole object universe; they are refused, never misread.
var (
	snapshotMagic    = []byte("DPS2")
	oldSnapshotMagic = []byte("DPS1")
	journalMagic     = []byte("DPJ1")
)

// maxRecord bounds a single record so a corrupt length prefix cannot
// trigger an unbounded read. Writers refuse a larger record
// (checkRecord) rather than land one recovery would report as corrupt.
const maxRecord = 64 << 20

// castagnoli is the CRC-32C table (hardware-accelerated on the
// platforms that matter).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encode appends to dst the payload a layout's walk writes.
func encode(dst []byte, walk func(*netproto.Cursor)) []byte {
	c := netproto.Encoding(dst)
	walk(c)
	return c.Bytes()
}

// decode reads a payload through a layout's walk, reporting a failure
// under this package's prefix, so a bad snapshot or journal record
// reads as a persistence error.
func decode(payload []byte, walk func(*netproto.Cursor)) error {
	c := netproto.Decoding(payload)
	walk(c)
	if err := c.Err(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// generation is the payload of the header record that opens both
// files: the generation of the snapshot the file holds or extends.
type generation uint64

func (g *generation) walk(c *netproto.Cursor) { c.Uvarint((*uint64)(g)) }

// header renders a file's magic and its header record.
func header(magic []byte, gen uint64) []byte {
	g := generation(gen)
	return frameRecord(bytes.Clone(magic), recHeader, encode(nil, g.walk))
}

// readHeader checks a file's magic and its header record, and returns
// the generation and the records after it.
func readHeader(raw, magic []byte, file string) (uint64, []byte, error) {
	if !bytes.HasPrefix(raw, magic) {
		return 0, nil, fmt.Errorf("persist: bad %s magic", file)
	}
	typ, payload, rest, err := readRecord(raw[len(magic):])
	if err != nil {
		return 0, nil, fmt.Errorf("persist: %s header: %w", file, err)
	}
	if typ != recHeader {
		return 0, nil, fmt.Errorf("persist: %s opens with record type %d", file, typ)
	}
	var g generation
	err = decode(payload, g.walk)
	return uint64(g), rest, err
}

// checkRecord refuses a payload whose record exceeds maxRecord, before
// anything is written.
func checkRecord(payload []byte) error {
	if n := 1 + len(payload); n > maxRecord {
		return fmt.Errorf("persist: a %d-byte record exceeds the %d-byte cap recovery accepts", n, maxRecord)
	}
	return nil
}

// frameRecord renders one record (length prefix, type, payload, CRC)
// onto dst and returns the extended slice.
func frameRecord(dst []byte, typ byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(payload)))
	start := len(dst)
	dst = append(dst, typ)
	dst = append(dst, payload...)
	sum := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// readRecord parses one record from b, returning the record type, its
// payload (aliasing b), and the remaining bytes. Any truncation,
// absurd length, or CRC mismatch returns an error — the caller decides
// whether that terminates a replay cleanly (journal tail) or fails a
// load (snapshot body).
func readRecord(b []byte) (typ byte, payload, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, b, fmt.Errorf("persist: truncated record length")
	}
	n := binary.LittleEndian.Uint32(b)
	if n < 1 || n > maxRecord {
		return 0, nil, b, fmt.Errorf("persist: corrupt record length %d", n)
	}
	if uint32(len(b)-4) < n+4 {
		return 0, nil, b, fmt.Errorf("persist: truncated record body")
	}
	body := b[4 : 4+n]
	want := binary.LittleEndian.Uint32(b[4+n:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return 0, nil, b, fmt.Errorf("persist: record CRC mismatch (got %08x want %08x)", got, want)
	}
	return body[0], body[1:], b[8+n:], nil
}
