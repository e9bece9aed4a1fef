// The ownership filter on a cluster shard's invalidation stream. The
// shard sends the repository its owned set — a MsgReshard on the stream
// it subscribed with — at every reshard (the first one installs it;
// until then the stream is unfiltered) and at every resume, and the
// repository then queues it only the notices of objects in the filter:
// the owned set, plus every object above the horizon, the largest ID
// below which the shard knew every object when it sent the set. A shard
// is granted only objects it did not know, so births need no message.
//
// The one invariant: the filter in force passes a superset of what the
// shard owns. A reshard that gains objects therefore sends old ∪ new
// first and waits for the repository's in-stream echo — every notice
// queued after it passes the union — before it swaps the owned set,
// and sends the exact new set afterwards without waiting. Sends, waits
// and swaps all hold the subscription's lock, which a resume also takes
// to change connections, so a wait never counts another connection's
// echo. The owned check in core.Shard.Notice stays as the safety net
// against the surplus.
package cache

import "github.com/deltacache/delta/internal/netproto"

// filterFrame is the set this shard's notices must cover: what it owns
// and every object above the known prefix.
func (m *Middleware) filterFrame() netproto.Frame {
	m.mu.Lock()
	epoch, owned, horizon := m.shard.Filter()
	m.mu.Unlock()
	return netproto.Frame{Type: netproto.MsgReshard, Body: netproto.ReshardMsg{
		Epoch: epoch, Owned: owned, Horizon: horizon,
	}}
}
