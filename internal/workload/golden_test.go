package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenTraces pins the exact event stream every scenario generates
// for a fixed survey, seed, and event mix. A refactor that silently
// changes any scenario's trace — and with it every benchmark number
// built on that scenario — fails here first. When a change is
// *intentional*, regenerate with:
//
//	go test ./internal/workload -run TestGoldenTraces -v
//
// and copy the printed hashes in.
var goldenTraces = map[string]string{
	"batch-interactive": "6bda2b40a022019344eb12db9c0973e7375a85e56f596960a3e4beeb923fc1b2",
	"diurnal":           "a025ef89bf62b3fd26f125026712724a35c995adda2e1ceb0ed0e2f4fdb4e7ba",
	"flash-crowd":       "282c4836654d427fed7092fd133368ef46b15bb10a857237ede97c6f5517e409",
	"growth-spurt":      "9071f5b1cef838f261e5b7e26c380f990476a90b1dee18cb7eb47339d79e6648",
	"zipf-drift":        "210abe13914a2e1d6e7f0fc2741950357bef3ce607ab56df699d78c94f03e029",
}

func TestGoldenTraces(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name(), func(t *testing.T) {
			want, ok := goldenTraces[sc.Name()]
			if !ok {
				t.Fatalf("scenario %q has no golden hash; add it", sc.Name())
			}
			events, err := sc.Events(testSurvey(t), Options{Seed: 42, Queries: 800, Updates: 400})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			serializeEvents(h, events)
			got := hex.EncodeToString(h.Sum(nil))
			if got != want {
				t.Errorf("golden trace hash changed:\n got  %s\n want %s", got, want)
			}
		})
	}
}
