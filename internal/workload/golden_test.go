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

// goldenDefaultTraces pins every scenario at its own default event mix
// (Options{Seed: 42}), so a change to a scenario's default counts or
// to its births fails here even when the fixed mix above still passes.
var goldenDefaultTraces = map[string]string{
	"batch-interactive": "b1de4812b42c9a0c1962ca2ff4e759e7c1756e8d3e0fef5a6a2f28b886e88e39",
	"diurnal":           "4c5d5016447aa5e5e8b8f41f037d7730fc902f353f673b3b2acbe7218f37a27f",
	"flash-crowd":       "1ea2da3b0dcab7458d8581b6417e6156a4a71e42ce69cdea538384d97ed0f7ad",
	"growth-spurt":      "6e54bef9692de1c9812facb09ee713d662b4fb28ed053e510ad15ad2297abdfb",
	"zipf-drift":        "c4ac8302118f5035e1958ad7f5115e5db6bc7f40b324066aa9fa643bd51b453c",
}

func TestGoldenTraces(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name(), func(t *testing.T) {
			want, ok := goldenTraces[sc.Name()]
			if !ok {
				t.Fatalf("scenario %q has no golden hash; add it", sc.Name())
			}
			checkGoldenTrace(t, sc, Options{Seed: 42, Queries: 800, Updates: 400}, want)
		})
	}
}

func TestGoldenDefaultTraces(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name(), func(t *testing.T) {
			want, ok := goldenDefaultTraces[sc.Name()]
			if !ok {
				t.Fatalf("scenario %q has no default-mix golden hash; add it", sc.Name())
			}
			checkGoldenTrace(t, sc, Options{Seed: 42}, want)
		})
	}
}

func checkGoldenTrace(t *testing.T, sc Scenario, opts Options, want string) {
	t.Helper()
	events, err := sc.Events(testSurvey(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	serializeEvents(h, events)
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("golden trace hash changed:\n got  %s\n want %s", got, want)
	}
}
