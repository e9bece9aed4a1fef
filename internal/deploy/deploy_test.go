package deploy

import (
	"context"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// freeAddrs returns n distinct loopback addresses nothing listens on.
// Every listener stays open until all n are picked, so no two calls to
// the kernel can hand out the same port.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestDeploymentFromFlags starts a repository, two -shard caches and a
// router from their command lines in one process. A birth published at
// the repository before the router starts must be answerable through
// it: the router learns the universe from the repository, births
// included, not from settings of its own. The universe settings the
// repository alone owns are refused by the other nodes.
func TestDeploymentFromFlags(t *testing.T) {
	stop := make(chan struct{})
	var running []chan error
	start := func(run func([]string, <-chan struct{}) error, args ...string) {
		done := make(chan error, 1)
		running = append(running, done)
		go func() { done <- run(args, stop) }()
	}
	defer func() {
		close(stop)
		for _, done := range running {
			if err := <-done; err != nil {
				t.Errorf("node: %v", err)
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	addrs := freeAddrs(t, 4)
	repoAddr, shards, routerAddr := addrs[0], addrs[1:3], addrs[3]
	start(Server, "-addr", repoAddr, "-objects", "16", "-seed", "2")
	repo, err := client.Dial(repoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	survey, err := repo.Survey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := survey.Config(); cfg.NumObjects != 16 || cfg.Seed != 2 {
		t.Fatalf("the repository serves %+v, want its -objects 16 -seed 2", cfg)
	}
	births, err := survey.GrowObjects(rand.New(rand.NewSource(1)), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := repo.AddObjects(ctx, births); err != nil || n != 1 {
		t.Fatalf("publish at the repository: %d, %v", n, err)
	}

	for _, addr := range shards {
		start(Cache, "-addr", addr, "-repo", repoAddr, "-shard")
	}
	start(Router, "-addr", routerAddr, "-repo", repoAddr, "-shards", strings.Join(shards, ","))
	cl, err := client.Dial(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	newborn := births[0].Object.ID
	res, err := cl.Query(ctx, model.Query{
		ID: 1, Objects: []model.ObjectID{newborn}, Cost: cost.MB, Tolerance: model.AnyStaleness,
	})
	if err != nil {
		t.Fatalf("query newborn %d through a router started after its birth: %v", newborn, err)
	}
	if res.Degraded {
		t.Errorf("newborn %d answered degraded (missing shards %v)", newborn, res.MissingShards)
	}

	for _, tc := range []struct {
		name string
		run  func([]string, <-chan struct{}) error
	}{{"delta-cache", Cache}, {"delta-router", Router}} {
		for _, flag := range []string{"-seed", "-objects"} {
			err := tc.run([]string{flag, "99"}, stop)
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Errorf("%s %s 99 = %v, want the flag refused", tc.name, flag, err)
			}
		}
	}
	if err := Router([]string{"-shards", strings.Join(shards, ",")}, stop); err == nil {
		t.Error("delta-router without -repo started")
	}
}
