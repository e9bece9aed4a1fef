package cluster

import (
	"slices"
	"testing"

	"github.com/deltacache/delta/internal/netproto"
)

// TestMergeSamples pins the aggregate rule: samples merge by name in
// first-seen order, a *_total counter sums across nodes and any other
// sample, a gauge, takes the largest value.
func TestMergeSamples(t *testing.T) {
	shardA := []netproto.Sample{{Name: "q_total", Value: 2}, {Name: "age_seconds", Value: 5}}
	shardB := []netproto.Sample{{Name: "q_total", Value: 3}, {Name: "age_seconds", Value: 9}, {Name: "b_only", Value: 1}}
	router := []netproto.Sample{{Name: "q_total", Value: 1}, {Name: "replicas", Value: 2}}
	var got []netproto.Sample
	for _, s := range [][]netproto.Sample{shardA, shardB, router} {
		got = mergeSamples(got, s)
	}
	want := []netproto.Sample{
		{Name: "q_total", Value: 6},
		{Name: "age_seconds", Value: 9},
		{Name: "b_only", Value: 1},
		{Name: "replicas", Value: 2},
	}
	if !slices.Equal(got, want) {
		t.Errorf("merged %v, want %v", got, want)
	}
	if shardA[0].Value != 2 {
		t.Errorf("merging modified its input: %v", shardA)
	}
}
