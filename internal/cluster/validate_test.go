package cluster_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

// TestNegativeCostQueryRefused: a query whose result size ν(q) is
// negative is refused with MsgError by every node kind a client can
// reach — the repository, a standalone cache, a cluster shard (as a
// router's fragment) and a router — and the node keeps serving. No
// ledger moves for the refused query: shipping it would charge a
// negative ν(q), and its payload length would be negative.
func TestNegativeCostQueryRefused(t *testing.T) {
	kinds := append(nodeKinds[:len(nodeKinds):len(nodeKinds)], struct {
		name  string
		build func(t *testing.T, addr, metricsAddr string) (n lifecycleNode, backend *server.Repository)
	}{"shard", func(t *testing.T, addr, metricsAddr string) (lifecycleNode, *server.Repository) {
		repo := startedRepository(t)
		shard := lifecycleCache(t, repo, addr, metricsAddr, true)
		var all []model.ObjectID
		for _, o := range testSurvey(t).Objects() {
			all = append(all, o.ID)
		}
		if _, _, err := shard.Reshard(0, all, nil, nil); err != nil {
			t.Fatal(err)
		}
		return shard, repo
	}})
	q := model.Query{
		ID: 1, Objects: []model.ObjectID{1}, Cost: cost.MB,
		Tolerance: model.AnyStaleness, Time: time.Second,
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			n, repo := kind.build(t, "", "")
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			sess, err := netproto.DialSession(n.Addr(), "client", netproto.SessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			frame := func(q model.Query) netproto.Frame {
				if kind.name == "shard" {
					return netproto.Frame{Type: netproto.MsgShardQuery, Body: netproto.ShardQueryMsg{Query: q}}
				}
				return netproto.Frame{Type: netproto.MsgQuery, Body: netproto.QueryMsg{Query: q}}
			}
			ledgers := func() []cost.Snapshot {
				l := []cost.Snapshot{repo.Ledger()}
				if mw, ok := n.(*cache.Middleware); ok {
					l = append(l, mw.Ledger())
				}
				return l
			}
			before := ledgers()
			bad := q
			bad.Cost = -cost.GB // a negative payload length at the default scale
			var remote *netproto.RemoteError
			if _, err := sess.RoundTrip(context.Background(), frame(bad)); !errors.As(err, &remote) {
				t.Fatalf("query with ν(q) = -1 GB: err = %v, want a MsgError reply", err)
			}
			for i, l := range ledgers() {
				if l != before[i] {
					t.Errorf("ledger %d moved for a refused query: %+v → %+v", i, before[i], l)
				}
			}
			reply, err := sess.RoundTrip(context.Background(), frame(q))
			if err != nil {
				t.Fatalf("the next query failed: %v", err)
			}
			if _, ok := reply.Body.(netproto.QueryResultMsg); !ok {
				t.Fatalf("the next query got %s, want a result", reply.Type)
			}
		})
	}
}
