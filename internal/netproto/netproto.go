// Package netproto defines Delta's wire protocol: length-prefixed binary
// frames (codec_v3.go) carrying the three data-communication mechanisms
// of the paper (query shipping, update shipping, object loading) plus
// the control-plane messages (invalidation notices, statistics).
//
// There is one protocol, v3, spoken from the first byte. Every
// connection opens with Hello{Version: 3} → HelloAck whatever its role;
// after that, request connections multiplex (every frame carries a
// RequestID, any number of requests may be in flight, replies may arrive
// out of order) and the pipeline and invalidation streams are one-way.
// A peer that announces an older version, or whose first bytes are not
// a v3 frame, is refused with a MsgError and a closed connection: all
// nodes of a deployment are rebuilt and restarted together. See
// docs/PROTOCOL.md for the frame format and role lifecycle.
//
// Payload scaling: the paper's traffic costs are logical data sizes; a
// laptop deployment cannot move hundreds of gigabytes, so messages carry
// a declared logical size plus a physically scaled payload (BytesPerGB
// configurable, see PayloadScale). Ledgers always account logical sizes,
// which is what every experiment reports.
package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// MaxFrame bounds a frame's encoded size (16 MiB): large enough for any
// scaled payload, small enough to catch stream corruption early.
const MaxFrame = 16 << 20

// ProtoV3 is the protocol version: the one value Hello.Version and
// HelloAck.Version carry.
const ProtoV3 = 3

// ReadHello receives the Hello that must open every accepted
// connection. Anything else — including bytes that are not a v3 frame
// at all, which is what a binary built before v3 became the only
// protocol sends — is answered with a MsgError naming the supported
// version and returned as an error, so the caller closes the
// connection.
func ReadHello(c *Conn) (Hello, error) {
	first, err := c.Recv()
	if IsClosed(err) {
		return Hello{}, err
	}
	if err != nil {
		return Hello{}, Refuse(c, fmt.Errorf("netproto: expected a v%d hello: %w", ProtoV3, err))
	}
	hello, ok := first.Body.(Hello)
	if !ok {
		return Hello{}, Refuse(c, fmt.Errorf("netproto: expected a v%d hello, got %s", ProtoV3, first.Type))
	}
	return hello, nil
}

// ServeHandshake completes the accept half of the handshake once the
// Hello is in hand: a peer announcing ProtoV3 or newer gets
// HelloAck{Version: ProtoV3}; an older one gets a MsgError naming the
// supported version and a non-nil error, on which the caller closes the
// connection without serving it. The returned version is always
// ProtoV3.
//
// The unnamed third parameter (once a version cap) is ignored; it and
// the version result survive only because the frozen bench/ module
// calls ServeHandshake(c, hello, 0). Delete both with that call.
func ServeHandshake(c *Conn, hello Hello, _ int) (int, error) {
	if hello.Version < ProtoV3 {
		return 0, Refuse(c, fmt.Errorf("netproto: peer speaks protocol v%d, this node speaks only v%d (rebuild and restart the peer)", hello.Version, ProtoV3))
	}
	return ProtoV3, c.Send(Frame{Type: MsgHelloAck, Body: HelloAck{Version: ProtoV3}})
}

// Refuse tells a peer why its connection is about to be closed and
// returns err for the caller to close it on. Best effort: the close
// happens whether or not the MsgError lands.
func Refuse(c *Conn, err error) error {
	_ = c.Send(ErrorFrame("%v", err))
	return err
}

// IsClosed reports whether err indicates an orderly or forced
// connection shutdown (EOF, a truncated frame on close, or use of a
// closed network connection). It is the shared replacement for
// string-matching "EOF" at every call site.
func IsClosed(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// IgnoreClosed nils an orderly-shutdown error (per IsClosed), which
// serve loops treat as a clean exit rather than a failure to report.
func IgnoreClosed(err error) error {
	if IsClosed(err) {
		return nil
	}
	return err
}

// ErrorFrame builds a MsgError reply from a format string.
func ErrorFrame(format string, args ...any) Frame {
	return Frame{Type: MsgError, Body: ErrorMsg{Message: fmt.Sprintf(format, args...)}}
}

// PayloadScale converts logical sizes to physical payload bytes.
type PayloadScale struct {
	// BytesPerGB is how many physical bytes represent one logical
	// gigabyte. Zero means no payload bytes at all (metadata only).
	BytesPerGB int64
}

// DefaultScale ships 4 KiB per logical gigabyte.
func DefaultScale() PayloadScale { return PayloadScale{BytesPerGB: 4 << 10} }

// PayloadLen returns the physical payload length for a logical size.
func (s PayloadScale) PayloadLen(logical cost.Bytes) int {
	if s.BytesPerGB <= 0 {
		return 0
	}
	n := int64(float64(logical) / float64(cost.GB) * float64(s.BytesPerGB))
	if n < 1 && logical > 0 {
		n = 1
	}
	if n > MaxFrame/2 {
		n = MaxFrame / 2
	}
	return int(n)
}

// MsgType discriminates frames.
type MsgType uint8

const (
	// MsgQuery ships a query from cache to repository.
	MsgQuery MsgType = iota + 1
	// MsgQueryResult returns a query's result.
	MsgQueryResult
	// MsgUpdateFeed pushes an update into the repository (data
	// pipeline → repository).
	MsgUpdateFeed
	// MsgShipUpdates requests outstanding updates by ID (cache →
	// repository).
	MsgShipUpdates
	// MsgUpdates carries shipped updates (repository → cache).
	MsgUpdates
	// MsgLoadObject requests a batch of whole objects (cache →
	// repository).
	MsgLoadObject
	// MsgObjectData carries a loaded batch (repository → cache).
	MsgObjectData
	// MsgInvalidate notifies the cache that an update arrived for an
	// object (control plane; not charged).
	MsgInvalidate
	// MsgStats requests / carries traffic statistics.
	MsgStats
	// MsgError carries a server-side failure.
	MsgError
	// MsgHello introduces a connection and its role.
	MsgHello
	// MsgHelloAck acknowledges a Hello; every role waits for it.
	MsgHelloAck
	// MsgShardQuery ships one fragment of a scattered query from a
	// cluster router to the shard that owns the fragment's objects.
	MsgShardQuery
	// MsgClusterStats requests / carries the cluster-wide statistics
	// view (per-shard StatsMsg plus the aggregate).
	MsgClusterStats
	// MsgAdminResize asks a cluster router to resize the cluster to a
	// new shard list, live (admin client → router).
	MsgAdminResize
	// MsgRebalanceStatus requests / carries the router's rebalance
	// progress view (admin client → router).
	MsgRebalanceStatus
	// MsgReshard atomically swaps a cache shard's owned object set
	// during a live resize, naming the arrivals it may adopt warm
	// (router → shard).
	MsgReshard
	// MsgObjectBirth carries newly published data objects. It is both
	// the ingestion request (client/pipeline → cache/router → repository,
	// replied to with the accepted count) and the announcement the
	// repository broadcasts on the invalidation stream so caches and
	// routers extend their universes live.
	MsgObjectBirth
	// MsgBirthGrant is the router→shard ownership grant for a batch of
	// adopted births: one frame per shard per adoption round, however
	// many objects were born, instead of one MsgObjectBirth round trip
	// per object. The births already live at the repository (the grant
	// follows the repository's ack or announcement), so the shard admits
	// them directly without re-forwarding upstream.
	MsgBirthGrant
)

// msgNames is indexed by MsgType.
var msgNames = [...]string{
	MsgQuery: "query", MsgQueryResult: "query-result",
	MsgUpdateFeed: "update-feed", MsgShipUpdates: "ship-updates",
	MsgUpdates: "updates", MsgLoadObject: "load-object",
	MsgObjectData: "object-data", MsgInvalidate: "invalidate",
	MsgStats: "stats", MsgError: "error",
	MsgHello: "hello", MsgHelloAck: "hello-ack",
	MsgShardQuery: "shard-query", MsgClusterStats: "cluster-stats",
	MsgAdminResize: "admin-resize", MsgRebalanceStatus: "rebalance-status",
	MsgReshard:     "reshard",
	MsgObjectBirth: "object-birth", MsgBirthGrant: "birth-grant",
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	if int(t) < len(msgNames) && msgNames[t] != "" {
		return msgNames[t]
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Hello opens every connection: the dialer announces its role and
// protocol version, then waits for a HelloAck.
type Hello struct {
	Role string // "cache", "client", "pipeline", "invalidations"
	// Version is the protocol version the peer speaks (ProtoV3).
	// Anything lower is refused.
	Version int
}

// HelloAck completes the handshake; Version is always ProtoV3.
type HelloAck struct {
	Version int
}

// SkyRegion is an optional spherical-cap restriction riding a query:
// clients that know the sky region but not the object universe leave
// Query.Objects empty and set the region instead, and the serving node
// (cache or cluster router) resolves it to B(q) through its memoized
// HTM cover cache. The zero value means "no region".
type SkyRegion struct {
	// RA and Dec are the cap center in degrees.
	RA  float64
	Dec float64
	// RadiusDeg is the cap radius in degrees; zero or negative means
	// the region is absent.
	RadiusDeg float64
}

// Empty reports whether the region is absent.
func (r SkyRegion) Empty() bool { return r.RadiusDeg <= 0 }

// QueryMsg ships a query. Region optionally carries the query's sky
// cap for server-side object resolution (see SkyRegion).
type QueryMsg struct {
	Query  model.Query
	Region SkyRegion
	// TraceID, when nonzero, asks every node on the query's path to
	// record TraceSpans for this query (see QueryResultMsg.Spans and
	// the obs package's trace ring). It rides the frame tail, written
	// only when nonzero; an absent tail decodes as zero (untraced).
	TraceID uint64
}

// QueryResultMsg returns a result with a scaled payload.
type QueryResultMsg struct {
	QueryID model.QueryID
	// Logical is ν(q), the result's logical size.
	Logical cost.Bytes
	// Rows is a small sample of result rows (for demos; may be empty).
	Rows []ResultRow
	// Payload is the scaled physical payload.
	Payload []byte
	// Source says who answered: "cache" or "repository" ("mixed" for
	// a scatter/gather answer assembled from both).
	Source string
	// Elapsed is the server-side processing time.
	Elapsed time.Duration
	// Degraded marks a scatter/gather answer assembled without every
	// fragment: one or more owning shards failed, so the result covers
	// only the surviving shards' objects. Single-node answers never
	// set it.
	Degraded bool
	// MissingShards lists the shard indices whose fragments failed
	// when Degraded is set.
	MissingShards []int
	// TraceID echoes the request's trace ID when the query was traced
	// (zero otherwise); Spans carries every span the answering node
	// (and, through a router, every shard it scattered to) recorded
	// for the query. Both ride the frame tail, elided when empty.
	TraceID uint64
	Spans   []TraceSpan
}

// TraceSpan is one hop's timing record for a traced query. Each node a
// traced query touches appends one span per unit of work it did: a
// router records a "router" span for the scatter/gather, every shard a
// "fragment" span (or a cache a "cache" span for a direct client
// query), and a repository a "repository" span when the query (or part
// of it) was shipped upstream. The client reassembles the fan-out tree
// from Name nesting; see docs/OBSERVABILITY.md for semantics.
type TraceSpan struct {
	// Name classifies the hop: "router", "fragment", "cache",
	// "repository", or "load".
	Name string
	// Node identifies the recording node, typically its listen
	// address.
	Node string
	// Shard is the recording shard's index in the cluster topology, or
	// -1 when the node is not a shard (repository, single cache,
	// router).
	Shard int
	// Epoch is the routing epoch the query was scattered under (router
	// spans; zero elsewhere).
	Epoch int
	// Fragments is the scatter width: on a router span, how many
	// fragments the query split into; on a fragment span, the width
	// the fragment arrived annotated with.
	Fragments int
	// Objects is how many objects the hop's (fragment of the) query
	// named.
	Objects int
	// Source is the hop's answer source ("cache", "repository",
	// "mixed"); empty when the hop is not an answer (e.g. "load").
	Source string
	// Detail carries hop-specific notes, comma-joined key=value pairs
	// (e.g. "cover-cache=hit", "rerouted=1").
	Detail string
	// Elapsed is the hop's processing time.
	Elapsed time.Duration
}

// ResultRow is one row of a demo result set.
type ResultRow struct {
	ObjID int64
	RA    float64
	Dec   float64
	R     float64
}

// UpdateFeedMsg pushes one update into the repository.
type UpdateFeedMsg struct {
	Update model.Update
}

// ShipUpdatesMsg requests specific outstanding updates.
type ShipUpdatesMsg struct {
	IDs []model.UpdateID
}

// UpdatesMsg carries shipped updates.
type UpdatesMsg struct {
	Updates []model.Update
	// Payload is the scaled physical payload covering all updates.
	Payload []byte
}

// LoadObjectMsg requests full copies of a batch of objects: every load
// one decision owes rides one round trip.
type LoadObjectMsg struct {
	Objects []model.ObjectID
}

// ObjectDataMsg carries the objects a LoadObjectMsg asked for, in
// request order, under one payload scaled to their summed size.
type ObjectDataMsg struct {
	Objects []model.Object
	Payload []byte
}

// InvalidateMsg tells the cache an object has a new outstanding update.
type InvalidateMsg struct {
	Update model.Update
}

// StatsMsg is a node's MsgStats answer: its traffic ledger, residents,
// policy and Metrics, every counter and gauge of its obs registry by
// /metrics name. A router answers with the cluster aggregate
// (ClusterStatsMsg.Aggregate), which no /metrics exposes.
type StatsMsg struct {
	Ledger cost.Snapshot
	Cached []model.ObjectID
	Policy string
	// Queries, AtCache, DroppedInvalidations and DedupedLoads repeat
	// samples in Metrics as typed fields only because the bench/
	// harness reads them; they go once it reads Metrics by name.
	Queries              int64
	AtCache              int64
	DroppedInvalidations int64
	DedupedLoads         int64
	Metrics              []Sample
}

// Sample is one metric value by name: an exposition line of a node's
// /metrics, and an entry of its StatsMsg.Metrics.
type Sample struct {
	Name  string
	Value float64
}

// Metric returns the value of the named sample, 0 when s has none.
func (s StatsMsg) Metric(name string) float64 {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// ShardQueryMsg is the router→shard leg of a scattered query: the
// fragment's Query.Objects are restricted to the receiving shard's
// owned set. Shard and Fragments are routing metadata so the shard
// (and its logs/traces) can tell fragments from whole client queries.
type ShardQueryMsg struct {
	Query model.Query
	// Shard is the receiving shard's index in the cluster topology.
	Shard int
	// Fragments is how many fragments the original query was split
	// into (1 for a query wholly owned by one shard).
	Fragments int
	// TraceID propagates the client query's trace ID to the shard (see
	// QueryMsg.TraceID); rides the frame tail.
	TraceID uint64
}

// ShardStats is one shard's slice of a cluster statistics view.
type ShardStats struct {
	Shard int
	Addr  string
	// Alive reports whether the shard answered the stats probe; Err
	// carries the failure when it did not.
	Alive bool
	Err   string
	Stats StatsMsg
}

// ClusterStatsMsg carries the cluster-wide statistics view: every
// shard's StatsMsg plus the aggregate a single-cache client would see.
// A single (unsharded) cache answers with itself as the only shard.
type ClusterStatsMsg struct {
	Shards    []ShardStats
	Aggregate StatsMsg
	// Degraded is set when at least one shard failed to report.
	Degraded bool
}

// AdminResizeMsg asks a router to take the cluster to a new shard
// list, live. Shards is the complete new shard address list in new
// index order; addresses already in the cluster keep their sessions
// (and, where possible, their cached state), new addresses are dialed,
// and addresses no longer listed are drained out of the routing table.
// The router replies with the final RebalanceStatusMsg of the resize.
type AdminResizeMsg struct {
	Shards []string
}

// RebalanceStatusMsg requests / carries the router's rebalance view.
type RebalanceStatusMsg struct {
	// Active reports a resize in flight; Phase names its stage
	// ("widen", "flip", "narrow", or "idle"/"done"/"failed").
	Active bool
	Phase  string
	// Epoch is the routing epoch: it increments once per completed
	// resize, and queries are double-routed while it transitions.
	Epoch int
	// From and To are the shard counts of the transition (or of the
	// last completed one).
	From, To int
	// MovedObjects / MovedBytes total the warm lists the widen reshards
	// carried: one entry per (object, new holder) whose old primary held
	// it resident at the probe.
	MovedObjects int64
	MovedBytes   cost.Bytes
	// Completed counts finished resizes; LastError carries the most
	// recent failure ("" when clean).
	Completed int64
	LastError string
}

// ReshardMsg replaces a shard's owned object set (router → shard) at
// router startup and during a live resize: the shard's policy universe
// and object filter change to exactly Owned — still-owned residents stay
// as they are, Warm arrivals are adopted, and the rest are dropped. The
// reply echoes the message with Resident/Dropped filled in.
//
// A cluster shard also sends it on its invalidation stream (shard →
// repository) to name the objects whose update notices it wants: Owned
// and every ID above Horizon. The repository installs that filter and
// echoes Epoch and the Horizon it applied back in-stream, after the
// last notice filtered the old way.
type ReshardMsg struct {
	Epoch int
	Owned []model.ObjectID
	// Universe carries the metadata of the Owned objects born after
	// the router started, so a shard can take ownership of objects born
	// after it spawned (a fresh shard joining a grown cluster has never
	// seen them), and of the first Owned object, so a shard refuses the
	// reshard when an object it already knows is described otherwise
	// (a router built from another survey). Every node builds the other
	// base objects from its own survey.
	Universe []model.Object
	// Warm lists objects this shard gains as a new holder that were
	// resident at their old primary when the router probed it: the
	// shard adopts them warm (after its carried residents, as capacity
	// allows) instead of loading them cold. A hint, like all residency.
	Warm []model.ObjectID
	// Resident and Dropped are reply fields: how many cached objects
	// survived the swap and how many were discarded as no longer
	// owned.
	Resident int
	Dropped  int
	// Horizon is an invalidation-stream field: the shard knew every
	// object up to it when it sent the set, so any object it is granted
	// later lies above it, and the repository passes every notice above
	// it. Rides the frame tail; 0 passes every notice.
	Horizon model.ObjectID
}

// ObjectBirthMsg carries newly published objects: full metadata plus
// sky position, so every receiver (repository catalog, cache policy
// universe, router ownership map) can place the newborn without a
// shared coordination service. As a request, the reply echoes the
// frame with Accepted set to how many births the receiver ingested
// (already-known births are skipped, making publication idempotent);
// on the invalidation stream it is a one-way announcement.
type ObjectBirthMsg struct {
	Births []model.Birth
	// Accepted is a reply field: how many births were newly ingested.
	Accepted int
}

// BirthGrantMsg grants a batch of adopted births to one owning shard
// (router → shard). Unlike MsgObjectBirth, the receiving shard does
// not forward the births to the repository — the router grants only
// births the repository has already acknowledged or announced — so a
// grant costs one router→shard round trip regardless of batch size.
// The reply echoes the frame with Accepted set to how many births the
// shard newly admitted (already-known births are skipped; grants are
// idempotent).
type BirthGrantMsg struct {
	Births []model.Birth
	// Accepted is a reply field: how many births were newly admitted.
	Accepted int
	// Epoch is the routing epoch the grant extends, advisory logging
	// context only (births extend an epoch in place; they never flip
	// it). Rides the frame tail; 0 means unspecified.
	Epoch int
}

// ErrorMsg carries a failure description.
type ErrorMsg struct {
	Message string
}

// Frame is the unit of transmission. RequestID correlates a reply with
// its request; it is zero on handshake frames and one-way streams.
type Frame struct {
	Type      MsgType
	RequestID uint64
	Body      any
	// Release, when non-nil, is invoked exactly once by Conn.Send after
	// the frame's bytes have been staged onto the connection (whether
	// the send succeeded or not). It is how pooled payload buffers
	// (NewPayload) return to their pool without the handler tracking
	// the send's completion. Local metadata only — never on the wire.
	Release func()
}

// Conn frames a stream with the binary codec (codec_v3.go). Send is
// safe for any number of concurrent writer goroutines (frames are
// serialized internally — this is what lets servers reply from
// per-request workers over one socket); Recv must be called from a
// single reader goroutine.
type Conn struct {
	sendMu sync.Mutex // serializes whole frames onto bw
	bw     *bufio.Writer
	br     *bufio.Reader
	closer io.Closer // underlying stream, when closable (see Close)

	// recvBuf is the receive scratch, reused across Recvs; decoded
	// frames never alias it (codec_v3.go's ownership rule).
	recvBuf []byte
}

// NewConn wraps a stream.
func NewConn(rw io.ReadWriter) *Conn {
	c := &Conn{
		bw: bufio.NewWriterSize(rw, 64<<10),
		br: bufio.NewReaderSize(rw, 64<<10),
	}
	if cl, ok := rw.(io.Closer); ok {
		c.closer = cl
	}
	return c
}

// Close closes the underlying stream (when it is closable), unblocking
// a concurrent Recv.
func (c *Conn) Close() error {
	if c.closer == nil {
		return nil
	}
	return c.closer.Close()
}

// SetVersion does nothing: every Conn speaks v3 from its first byte.
//
// Deprecated: kept only because the frozen bench/ module calls
// conn.SetVersion(netproto.ProtoV3). Delete it with that call.
func (c *Conn) SetVersion(int) {}

// Send writes one frame, staged in a pooled scratch buffer (encoding
// happens outside the send lock, so concurrent writers only serialize
// on the actual socket write) and flushed. Frames over MaxFrame are
// rejected here, at the sender, before any bytes hit the wire —
// shipping one would force the receiver to tear down the whole
// multiplexed connection — and a rejected or failed encode leaves the
// stream clean for the next frame. A non-nil f.Release is invoked
// exactly once before Send returns.
func (c *Conn) Send(f Frame) error {
	if f.Release != nil {
		defer f.Release()
	}
	bufp := encPool.Get().(*[]byte)
	e := Cursor{b: append((*bufp)[:0], 0, 0, 0, 0)} // length prefix, patched below
	e.walkFrame(&f)
	err := e.err
	if err == nil && len(e.b)-4 > MaxFrame {
		err = fmt.Errorf("netproto: frame %s too large (%d bytes)", f.Type, len(e.b)-4)
	}
	var werr, ferr error
	if err == nil {
		binary.LittleEndian.PutUint32(e.b[:4], uint32(len(e.b)-4))
		c.sendMu.Lock()
		_, werr = c.bw.Write(e.b)
		if werr == nil {
			ferr = c.bw.Flush()
		}
		c.sendMu.Unlock()
	}
	*bufp = e.b[:0]
	encPool.Put(bufp)
	switch {
	case err != nil:
		return err
	case werr != nil:
		return fmt.Errorf("netproto: write %s: %w", f.Type, werr)
	case ferr != nil:
		return fmt.Errorf("netproto: flush %s: %w", f.Type, ferr)
	}
	return nil
}

// Recv reads one frame into the per-connection scratch buffer and
// decodes it; the decoded frame owns all of its memory, so callers may
// hold it across later Recvs. A length prefix of zero or over MaxFrame
// aborts the stream before anything is allocated for it.
func (c *Conn) Recv() (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, err // clean shutdown between frames
		}
		return Frame{}, fmt.Errorf("netproto: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return Frame{}, fmt.Errorf("netproto: oversized frame (%d bytes, max %d)", n, MaxFrame)
	}
	if cap(c.recvBuf) < int(n) {
		c.recvBuf = make([]byte, n)
	}
	buf := c.recvBuf[:n]
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return Frame{}, fmt.Errorf("netproto: read frame body: %w", err)
	}
	cur := Cursor{b: buf, dec: true}
	var f Frame
	cur.walkFrame(&f)
	if err := cur.err; err != nil {
		return Frame{}, err
	}
	return f, nil
}

// MakePayload builds a deterministic pseudo-payload of the scaled size
// for a logical transfer. The content is reproducible from the seed so
// integration tests can verify integrity end to end.
func MakePayload(scale PayloadScale, logical cost.Bytes, seed int64) []byte {
	n := scale.PayloadLen(logical)
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	fillPayload(out, seed)
	return out
}

// fillPayload writes the deterministic pseudo-payload content shared
// by MakePayload and NewPayload.
func fillPayload(out []byte, seed int64) {
	state := uint64(seed)*2654435761 + 1
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		out[i] = byte(state >> 56)
	}
}

// payloadPool recycles result-payload buffers for the hot reply path
// (query results, shipped updates, object loads), so a server under
// fan-out stops allocating a fresh payload per fragment.
var payloadPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4<<10); return &b },
}

// NewPayload builds the same deterministic pseudo-payload as
// MakePayload, but in a pooled buffer. The returned release function
// (nil when the payload is empty) returns the buffer to the pool; set
// it as the reply Frame's Release so Conn.Send recycles the buffer the
// moment the bytes are staged. The payload must not be retained after
// release.
func NewPayload(scale PayloadScale, logical cost.Bytes, seed int64) (payload []byte, release func()) {
	n := scale.PayloadLen(logical)
	if n == 0 {
		return nil, nil
	}
	bufp := payloadPool.Get().(*[]byte)
	if cap(*bufp) < n {
		*bufp = make([]byte, 0, n)
	}
	out := (*bufp)[:n]
	fillPayload(out, seed)
	return out, func() {
		*bufp = out[:0]
		payloadPool.Put(bufp)
	}
}
