package cluster

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/server"
)

// TestAdoptBirthsOutOfOrderGrowsRegions adopts births 18, 17 and 19,
// in that order, as the birth worker can drain them from publish acks
// and stream announcements: the router's Regions survey must still
// grow to 19 objects, and each newborn must join its region's cover.
func TestAdoptBirthsOutOfOrderGrowsRegions(t *testing.T) {
	scfg := catalog.DefaultConfig()
	scfg.NumObjects = 16
	var err error
	surveys := make([]*catalog.Survey, 3)
	for i := range surveys {
		if surveys[i], err = catalog.NewSurvey(scfg); err != nil {
			t.Fatal(err)
		}
	}
	repoSurvey, regions, mirror := surveys[0], surveys[1], surveys[2]
	repo, err := server.New(server.Config{Survey: repoSurvey})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Start(); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	births, err := mirror.GrowObjects(rand.New(rand.NewSource(9)), 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := SpawnLocal(LocalConfig{
		RepoAddr: repo.Addr(),
		Objects:  repoSurvey.Objects(),
		Shards:   2,
		Regions:  regions,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for _, i := range []int{1, 0, 2} {
		if n, err := lc.Router.adoptBirths(context.Background(), births[i:i+1]); err != nil || n != 1 {
			t.Fatalf("adoptBirths(birth %d) = %d, %v; want 1 new", births[i].Object.ID, n, err)
		}
	}
	if n := regions.NumObjects(); n != 19 {
		t.Errorf("Regions survey holds %d objects, want 19", n)
	}
	for _, b := range births {
		ids, err := lc.Router.regions.Region(b.RA, b.Dec, 2)
		if err != nil || !slices.Contains(ids, b.Object.ID) {
			t.Errorf("region at (%v,%v) = %v, %v; want newborn %d in it", b.RA, b.Dec, ids, err, b.Object.ID)
		}
	}
}
