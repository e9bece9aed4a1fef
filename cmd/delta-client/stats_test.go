package main

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

// TestPrintStatsShardTable renders -stats against a 3-shard router with
// one shard closed: one row per shard read from the shard-labelled
// samples, DOWN for the closed one, the hit-rate spread over the two
// live ones, and an aggregate that lists no labelled sample.
func TestPrintStatsShardTable(t *testing.T) {
	survey, err := catalog.NewSurvey(catalog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repo, err := server.New(server.Config{Survey: survey, Scale: netproto.PayloadScale{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	lc, err := cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  survey.Objects(),
		Shards:   3,
		Scale:    netproto.PayloadScale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	cl, err := client.Dial(lc.Router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	owned := lc.Ownership.ShardObjects(0)
	if _, err := cl.Query(ctx, model.Query{
		Objects: owned[:1], Cost: cost.MB, Tolerance: model.AnyStaleness, Time: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	const dead = 2
	lc.Shards[dead].Close()
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printStats(&out, st)
	text := out.String()

	rows := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && isIndex(f[0]) {
			rows[f[0]] = line
		}
	}
	if len(rows) != 3 {
		t.Fatalf("want one row per shard, got %d:\n%s", len(rows), text)
	}
	for i, sh := range lc.Shards {
		row := rows[strconv.Itoa(i)]
		if !strings.Contains(row, sh.Addr()) {
			t.Errorf("shard %d row %q lacks its address %s", i, row, sh.Addr())
		}
		if down := strings.HasSuffix(row, "DOWN"); down != (i == dead) {
			t.Errorf("shard %d row %q: DOWN = %v, want %v", i, row, down, i == dead)
		}
	}
	if f := strings.Fields(rows["0"]); f[2] != "1" {
		t.Errorf("shard 0 row %q: queries %s, want 1", rows["0"], f[2])
	}
	for _, want := range []string{"cluster: 3 shards DEGRADED", "hit-rate across 2 live shards", "aggregate:\npolicy="} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "{") {
		t.Errorf("aggregate lists labelled samples:\n%s", text)
	}
}

func isIndex(s string) bool {
	_, err := strconv.Atoi(s)
	return err == nil
}
