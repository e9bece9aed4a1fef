// The ownership filter on a cluster shard's invalidation stream. The
// shard sends the repository its owned set — a MsgReshard on the stream
// it subscribed with — right after subscribing and at every reshard,
// and the repository then queues it only the notices of objects in the
// filter: the owned set, plus every object above the horizon, the
// largest ID below which the shard knew every object when it sent the
// set. A shard is granted only objects it did not know, so births need
// no message.
//
// The one invariant: the filter in force passes a superset of what the
// shard owns. A reshard that gains objects therefore sends old ∪ new
// first and waits for the repository's in-stream echo — every notice
// queued after it passes the union — before it swaps the owned set,
// and sends the exact new set afterwards without waiting. The owned
// check in invalidationLoop stays as the safety net against the
// surplus.
package cache

import (
	"sync"
	"sync/atomic"

	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// streamFilter is the shard's side of the filter handshake.
type streamFilter struct {
	// mu serializes the owned-set frames with the owned-set swaps that
	// wait on them; sent numbers the frames (under mu).
	mu   sync.Mutex
	sent uint64
	// echoed counts the repository's echoes, which come back in send
	// order; wake holds a token once one has arrived, and lost is closed
	// when the stream ends.
	echoed atomic.Uint64
	wake   chan struct{}
	lost   chan struct{}
}

// sendFilter sends the repository the set this shard's notices must
// cover — owned ∪ with (with may be nil) and every object above the
// known prefix — and returns the frame's number for awaitFilter. The
// caller holds m.filter.mu and m.owned is non-nil. A frame that cannot
// be sent closes the stream: the node then fails closed rather than
// trust a filter the repository never installed.
func (m *Middleware) sendFilter(with *idSet) uint64 {
	m.mu.Lock()
	ids := make([]model.ObjectID, 0, m.owned.len())
	for id := range m.owned.all() {
		ids = append(ids, id)
	}
	if with != nil {
		for id := range with.all() {
			if !m.owned.has(id) {
				ids = append(ids, id)
			}
		}
	}
	body := netproto.ReshardMsg{Epoch: m.reshardEpoch, Owned: ids, Horizon: m.byID.knownPrefix()}
	m.mu.Unlock()
	m.filter.sent++
	if err := m.inv.Send(netproto.Frame{Type: netproto.MsgReshard, Body: body}); err != nil {
		m.cfg.Logf("send owned set on the invalidation stream: %v", err)
		m.inv.Close()
	}
	return m.filter.sent
}

// awaitFilter waits until the repository has echoed frame seq, or the
// stream has ended (the node is closing, or is deaf and ships every
// query).
func (m *Middleware) awaitFilter(seq uint64) {
	for m.filter.echoed.Load() < seq {
		select {
		case <-m.filter.wake:
		case <-m.filter.lost:
			return
		}
	}
}

// filterEchoed is invalidationLoop's half: the repository echoed the
// oldest frame not yet echoed.
func (m *Middleware) filterEchoed() {
	m.filter.echoed.Add(1)
	select {
	case m.filter.wake <- struct{}{}:
	default:
	}
}
