package detlint_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"defined/internal/analysis/detlint"
	"defined/internal/analysis/detlint/detlinttest"
)

// td returns the per-analyzer fixture root.
func td(name string) string { return filepath.Join("testdata", name) }

func TestWallclock(t *testing.T) {
	detlinttest.Run(t, td("wallclock"), detlint.WallclockAnalyzer, "defined/internal/netsim")
	detlinttest.Run(t, td("wallclock"), detlint.WallclockAnalyzer, "defined/internal/experiments")
}

func TestDetrand(t *testing.T) {
	detlinttest.Run(t, td("detrand"), detlint.DetrandAnalyzer, "defined/internal/eventq")
	detlinttest.Run(t, td("detrand"), detlint.DetrandAnalyzer, "defined/internal/rng")
}

func TestMaprange(t *testing.T) {
	detlinttest.Run(t, td("maprange"), detlint.MaprangeAnalyzer, "defined/internal/shard")
}

func TestJournalbypass(t *testing.T) {
	detlinttest.Run(t, td("journalbypass"), detlint.JournalbypassAnalyzer, "defined/internal/routing/fixd")
}

// TestRepoClean runs the full suite over the whole module: the committed
// tree must stay at zero diagnostics, with every suppression justified.
// This duplicates the CI detlint job as a plain test so `go test ./...`
// alone catches a regression.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	root := strings.TrimSpace(string(out))
	pkgs, err := detlint.Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := detlint.Run(pkgs, detlint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
