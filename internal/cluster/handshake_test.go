package cluster_test

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/cache"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// gobHello is, byte for byte, what a binary built before v3 became the
// only protocol writes when it opens a connection: a gob-encoded
// Hello{Role: "client", Version: 2}. Read as a v3 length prefix its
// first four bytes claim a 17 MB frame, just past MaxFrame.
const gobHello = "6\x7f\x03\x01\x01\tframeBody\x01\xff\x80\x00\x01\x03\x01\x04Type\x01\x06\x00\x01\tRequestID\x01\x06\x00\x01\x04Body\x01\x10\x00\x00\x00o\xff\x80\x01\f\x023github.com/deltacache/delta/internal/netproto.Hello\xff\x81\x03\x01\x01\x05Hello\x01\xff\x82\x00\x01\x03\x01\x04Role\x01\f\x00\x01\aVersion\x01\x04\x00\x01\bFeatures\x01\xff\x84\x00\x00\x00\x16\xff\x83\x02\x01\x01\b[]string\x01\xff\x84\x00\x01\f\x00\x00\x0f\xff\x82\v\x01\x06client\x01\x04\x00\x00"

// TestHandshakeOnEveryNode drives the accept half of the handshake on
// each node type and role with every kind of first message a peer can
// send. A Hello announcing a version below 3 draws a MsgError naming v3
// and a closed connection; the bytes of a gob-speaking peer draw a
// closed connection (and at most a refusal naming the decode error); a
// Hello announcing 3 or more draws HelloAck{3}, after which the role is
// served over v3 frames. A Hello for a role the node does not serve —
// "pipeline" at the repository, where updates enter in process — draws
// a MsgError naming the unknown role, whatever version it announces. Nothing hangs
// past the deadline and no refused peer is ever served.
func TestHandshakeOnEveryNode(t *testing.T) {
	_, repo, lc := startCluster(t, 1, func(int) core.Policy { return core.NewReplica() })
	// The one shard and the router each subscribed through the same
	// handshake, and each constructor returned only after its ack.
	if got := repo.Subscribers(); got != 2 {
		t.Fatalf("subscribers = %d after spawning one shard and a router, want 2", got)
	}
	nodes := []struct {
		name, addr string
		roles      []string
		unknown    []string // roles the node refuses
	}{
		{"repository", repo.Addr(), []string{"cache", "client", "invalidations", "shard-invalidations"}, []string{"pipeline"}},
		{"cache", lc.Shards[0].Addr(), []string{"client"}, nil},
		{"router", lc.Router.Addr(), []string{"client"}, nil},
	}
	openings := []struct {
		name    string
		version int    // announced in a v3 Hello, unless raw is set
		raw     string // written as is
		refusal string // what the MsgError must say; "" means the peer is served
	}{
		{name: "stale-v0", version: 0, refusal: "only v3"},
		{name: "stale-v1", version: 1, refusal: "only v3"},
		{name: "stale-v2", version: 2, refusal: "only v3"},
		{name: "gob-peer", raw: gobHello, refusal: "oversized frame"},
		{name: "v3", version: 3},
		{name: "v4", version: 4},
	}
	const deadline = 5 * time.Second
	stats := netproto.Frame{Type: netproto.MsgStats, RequestID: 7, Body: netproto.StatsMsg{}}
	nextUpdate := model.UpdateID(0)
	for _, node := range nodes {
		for _, role := range append(node.roles, node.unknown...) {
			for _, open := range openings {
				if slices.Contains(node.unknown, role) && open.raw == "" {
					open.refusal = fmt.Sprintf("unknown role %q", role)
				}
				t.Run(node.name+"/"+role+"/"+open.name, func(t *testing.T) {
					nc, err := net.Dial("tcp", node.addr)
					if err != nil {
						t.Fatal(err)
					}
					defer nc.Close()
					nc.SetDeadline(time.Now().Add(deadline))
					c := netproto.NewConn(nc)
					if open.raw != "" {
						_, err = nc.Write([]byte(open.raw))
					} else {
						err = c.Send(netproto.Frame{Type: netproto.MsgHello, Body: netproto.Hello{Role: role, Version: open.version}})
					}
					if err != nil {
						t.Fatal(err)
					}
					if open.refusal != "" {
						refusals := 0
						for {
							f, err := c.Recv()
							if ne, ok := err.(net.Error); ok && ne.Timeout() {
								t.Fatalf("connection still open %v after the refusal", deadline)
							}
							if err != nil {
								break // closed
							}
							msg, ok := f.Body.(netproto.ErrorMsg)
							if !ok {
								t.Fatalf("refused peer was sent %s %+v", f.Type, f.Body)
							}
							if !strings.Contains(msg.Message, open.refusal) {
								t.Errorf("refusal %q does not mention %q", msg.Message, open.refusal)
							}
							refusals++
							_ = c.Send(stats) // a refused peer that asks anyway gets nothing but the closed door
						}
						// The refusal of raw garbage races the node's close of a
						// socket with unread bytes; a well-formed Hello's cannot.
						if open.raw == "" && refusals != 1 {
							t.Errorf("got %d MsgError frames before the close, want 1", refusals)
						}
						return
					}
					reply, err := c.Recv()
					if err != nil {
						t.Fatal(err)
					}
					if ack, ok := reply.Body.(netproto.HelloAck); !ok || ack.Version != netproto.ProtoV3 {
						t.Fatalf("reply = %s %+v, want HelloAck{3}", reply.Type, reply.Body)
					}
					nextUpdate++
					u := model.Update{ID: nextUpdate, Object: lc.Ownership.ShardObjects(0)[0], Cost: cost.KB, Time: time.Duration(nextUpdate) * time.Second}
					switch role {
					case "invalidations", "shard-invalidations":
						// A stream of either role carries only what it
						// registered.
						if err := c.Send(netproto.Frame{Type: netproto.MsgInterest, Body: netproto.InterestMsg{Objects: []model.ObjectID{u.Object}}}); err != nil {
							t.Fatal(err)
						}
						if f, err := c.Recv(); err != nil || f.Type != netproto.MsgInterest {
							t.Fatalf("registration echo: %v %v", f.Type, err)
						}
						repo.ApplyUpdate(u)
						f, err := c.Recv()
						if err != nil {
							t.Fatal(err)
						}
						if inv, ok := f.Body.(netproto.InvalidateMsg); !ok || inv.Update != u {
							t.Fatalf("subscriber received %s %+v, want the notice for update %d", f.Type, f.Body, u.ID)
						}
					default:
						if err := c.Send(stats); err != nil {
							t.Fatal(err)
						}
						f, err := c.Recv()
						if err != nil {
							t.Fatal(err)
						}
						if _, ok := f.Body.(netproto.StatsMsg); !ok || f.RequestID != stats.RequestID {
							t.Fatalf("stats request answered with %s (request %d) %+v", f.Type, f.RequestID, f.Body)
						}
					}
				})
			}
		}
	}
}

// TestUpdateRightAfterNewRouterIsDelivered applies an update on the
// line after NewRouter returns — no sleep, no poll on Subscribers. The
// repository registers an invalidation subscriber before it acks the
// subscription and NewRouter waits for that ack, so the router is
// already among the subscribers the notice is queued to, and nothing
// is dropped. (TestUpdateRightAfterNewIsDelivered in internal/cache is
// the same check for a cache, observed at its policy.)
func TestUpdateRightAfterNewRouterIsDelivered(t *testing.T) {
	survey, repo := startRepository(t)
	shard, err := cache.New(cache.Config{
		RepoAddr: repo.Addr(),
		Policy:   core.NewVCover(core.DefaultVCoverConfig()),
		Objects:  survey.Objects(),
		Shard:    true,
		Capacity: 8 * cost.GB,
		Scale:    netproto.DefaultScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	if err := shard.Start(); err != nil {
		t.Fatal(err)
	}
	own, err := core.NewOwnership(survey.Objects(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := repo.Subscribers()

	router, err := cluster.NewRouter(cluster.Config{Shards: []string{shard.Addr()}, Ownership: own, RepoAddr: repo.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	repo.ApplyUpdate(model.Update{ID: 1, Object: survey.Objects()[0].ID, Cost: cost.MB, Time: time.Second})
	defer router.Close()
	if got := repo.Subscribers(); got != before+1 {
		t.Errorf("subscribers = %d right after NewRouter, want %d", got, before+1)
	}
	if got := repo.DroppedInvalidations(); got != 0 {
		t.Errorf("repository dropped %d notices", got)
	}
}
