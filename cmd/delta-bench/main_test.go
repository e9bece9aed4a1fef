package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownExperimentRejected pins that a mistyped -exp fails loudly,
// names the valid experiments, and creates no output directory.
func TestUnknownExperimentRejected(t *testing.T) {
	outdir := filepath.Join(t.TempDir(), "results")
	err := run([]string{"-exp", "fig7", "-outdir", outdir})
	if err == nil {
		t.Fatal("-exp fig7 accepted")
	}
	for _, e := range suite {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not list %s", err, e.name)
		}
	}
	if _, statErr := os.Stat(outdir); !os.IsNotExist(statErr) {
		t.Errorf("-outdir created for a rejected -exp (stat: %v)", statErr)
	}
}

func TestEveryExperimentNameAccepted(t *testing.T) {
	for _, e := range suite {
		got, err := selectExperiments(e.name)
		if err != nil || len(got) != 1 || got[0].name != e.name {
			t.Errorf("selectExperiments(%q) = %v, %v", e.name, got, err)
		}
	}
	if got, err := selectExperiments("all"); err != nil || len(got) != len(suite) {
		t.Errorf(`selectExperiments("all") = %d experiments, %v; want %d`, len(got), err, len(suite))
	}
}
