package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/cost"
)

// goldenGenerator pins the base Generator's event stream the way
// goldenTraces pins the scenarios: DefaultConfig (shortened) on the
// level-5 uniform mesh the cluster benchmarks replay: once on a fixed
// universe, once with births and the access bias toward them, and once
// in the benchmark's all-sky shape (every query a background query, no
// updates). Every
// query's object set is a cone cover, so a cover that drifts by one
// boundary trixel changes a hash. Regenerate an intentional change with
//
//	go test ./internal/workload -run TestGoldenGenerator -v
var goldenGenerator = map[string]string{
	"fixed":   "ad1138441ca5b92a80c4527f0be3b6c0a0f111e0d40d4668a39f1b9d54f602a2",
	"growing": "971a49ae80694873b9f26bdc402248c4b03ef7548d2514da82787bdfeab4b487",
	"all-sky": "7a149a4df8278dc79a448110815bf4d2e5bc726e83edab74daab0fdc1bed8951",
}

func TestGoldenGenerator(t *testing.T) {
	for name, want := range goldenGenerator {
		t.Run(name, func(t *testing.T) {
			survey, err := catalog.NewSurvey(catalog.Config{
				Seed:          3,
				NumObjects:    8 << (2 * 5), // every level-5 trixel
				TotalSize:     8 * cost.GB,
				MinObjectSize: 64 * cost.KB,
				MaxObjectSize: 16 * cost.MB,
				Blobs:         10,
				Uniform:       true,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Seed = 5
			cfg.NumQueries, cfg.NumUpdates = 3000, 1500
			switch name {
			case "growing":
				cfg.GrowthObjects, cfg.BirthBias = 60, 0.3
			case "all-sky":
				cfg.BackgroundQueryFrac, cfg.NumUpdates = 1, 0
			}
			g, err := NewGenerator(survey, cfg)
			if err != nil {
				t.Fatal(err)
			}
			events, err := g.Generate()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			serializeEvents(h, events)
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("generator trace hash changed:\n got  %s\n want %s", got, want)
			}
		})
	}
}
