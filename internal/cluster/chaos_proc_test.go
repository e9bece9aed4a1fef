package cluster_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// TestChaosProcessKill is the process-level half of the chaos-soak CI
// lane: it builds the real binaries, stands up a repository, three
// delta-cache shards at K=2 and a router as separate OS processes,
// SIGKILLs one shard mid-traffic, and requires the cluster to keep
// serving undegraded — the in-process TestReplicatedShardKillSoak
// contract, re-proven against real processes dying the hard way.
//
// The test builds and forks binaries, so it only runs when
// DELTA_CHAOS_PROC=1 (the CI chaos lane sets it; local runs opt in).
func TestChaosProcessKill(t *testing.T) {
	if os.Getenv("DELTA_CHAOS_PROC") != "1" {
		t.Skip("set DELTA_CHAOS_PROC=1 to run the process-kill chaos test")
	}

	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"./cmd/delta-server", "./cmd/delta-cache", "./cmd/delta-router")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const (
		shards   = 3
		replicas = 2
		objects  = 16
		seed     = 2
	)
	addrs := freeAddrs(t, shards+2)
	repoAddr, shardAddrs, routerAddr := addrs[0], addrs[1:1+shards], addrs[1+shards]

	logDir := t.TempDir()
	spawn := func(name string, args ...string) *exec.Cmd {
		t.Helper()
		logf, err := os.Create(filepath.Join(logDir, name+".log"))
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
		cmd.Stdout = logf
		cmd.Stderr = logf
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
			logf.Close()
			if t.Failed() {
				if out, err := os.ReadFile(logf.Name()); err == nil {
					t.Logf("--- %s log ---\n%s", name, out)
				}
			}
		})
		return cmd
	}

	repoProc := spawn("repo", "delta-server",
		"-addr", repoAddr,
		"-objects", fmt.Sprint(objects), "-seed", fmt.Sprint(seed))
	waitListening(t, repoAddr)
	shardProcs := make([]*exec.Cmd, shards)
	for i := 0; i < shards; i++ {
		shardProcs[i] = spawn(fmt.Sprintf("shard%d", i), "delta-cache",
			"-addr", shardAddrs[i], "-repo", repoAddr, "-shard")
	}
	for _, addr := range shardAddrs {
		waitListening(t, addr)
	}
	spawn("router", "delta-router",
		"-addr", routerAddr, "-repo", repoAddr,
		"-shards", shardAddrs[0]+","+shardAddrs[1]+","+shardAddrs[2],
		"-replicas", fmt.Sprint(replicas))
	waitListening(t, routerAddr)

	// The same survey config the repository was started with, which the
	// caches and the router fetched from it, so the test's object IDs
	// are the deployment's.
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = objects
	scfg.Seed = seed
	survey, err := catalog.NewSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []model.ObjectID
	for _, o := range survey.Objects() {
		ids = append(ids, o.ID)
	}

	cl, err := client.Dial(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	query := func(stage string, i int) {
		t.Helper()
		objs := ids[i%len(ids) : i%len(ids)+1]
		if i%4 == 0 {
			objs = ids // full-universe scatter
		}
		nu := cost.Bytes(len(objs)) * cost.MB
		res, err := cl.Query(ctx, model.Query{
			Objects:   objs,
			Cost:      nu,
			Tolerance: model.AnyStaleness,
			Time:      time.Second,
		})
		if err != nil {
			t.Fatalf("%s query %d: %v", stage, i, err)
		}
		if res.Degraded {
			t.Errorf("%s query %d degraded (missing %v)", stage, i, res.MissingShards)
		}
		if res.Logical != int64(nu) {
			t.Errorf("%s query %d logical %d, want %d", stage, i, res.Logical, nu)
		}
	}
	for i := 0; i < 8; i++ {
		query("pre-kill", i)
	}

	const dead = 1
	if err := shardProcs[dead].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL shard %d: %v", dead, err)
	}
	shardProcs[dead].Wait()

	for i := 0; i < 24; i++ {
		query("post-kill", i)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if up := shardUp(st, dead); up != 0 {
		t.Errorf("killed shard's delta_shard_up = %v, want 0", up)
	}
	if k := st.Metric("delta_router_replicas"); k != replicas {
		t.Errorf("aggregate reports K=%v, want %d", k, replicas)
	}

	// A node severs its peers on shutdown: the repository exits on
	// SIGTERM with two shards and the router still connected to it.
	if err := repoProc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM repository: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- repoProc.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("repository exited uncleanly on SIGTERM: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("repository still running 5s after SIGTERM with peers connected")
	}
}

// freeAddrs reserves n distinct loopback ports by listening on each
// and closing them all once every port is picked (so no two can be the
// same); the spawned processes re-bind them (a benign race on a quiet
// test host).
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

// waitListening polls until the address accepts connections (the
// processes log readiness, but dialing is the portable signal).
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never started listening: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
