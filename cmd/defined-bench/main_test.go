package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDryrunFingerprints is the committed-scenario drift check CI runs:
// `-scenario <file> -dryrun` must print the pinned plan fingerprint of
// every file under scenarios/. A drift in a file, the resolver's defaults
// or the expansion fails here; an intentional change updates the
// constants (and internal/scenario/plan10k_test.go, which pins hier10k
// too).
func TestDryrunFingerprints(t *testing.T) {
	for _, c := range []struct{ file, fingerprint string }{
		{"../../scenarios/hier10k.json", "0xd8ce94722560e39f"},
		{"../../scenarios/mixed-smoke.json", "0xa7504e03287e1354"},
		{"../../scenarios/chaos.json", "0x930d0275c0e1f7a5"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-scenario", c.file, "-dryrun"}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr:\n%s", c.file, code, &stderr)
		}
		if !strings.Contains(stdout.String(), "fingerprint "+c.fingerprint+"\n") {
			t.Errorf("%s no longer expands to pinned fingerprint %s:\n%s", c.file, c.fingerprint, &stdout)
		}
	}
}

// TestUsageErrors: flags that contradict each other, an unknown preset
// and a removed flag all exit 2 with a message naming what was wrong —
// nothing is silently ignored, and nothing runs.
func TestUsageErrors(t *testing.T) {
	const file = "../../scenarios/mixed-smoke.json"
	for _, c := range []struct {
		args []string
		want []string // substrings of stderr
	}{
		{[]string{"-dryrun"}, []string{"-dryrun", "-scenario"}},
		{[]string{"-scenario", file, "-dryrun", "-fig", "fig6a"}, []string{"-fig", "-scenario"}},
		{[]string{"-scenario", file, "-dryrun", "-preset", "quick"}, []string{"-preset", "-scenario"}},
		{[]string{"-scenario", file, "-dryrun", "-seed", "7"}, []string{"-seed", "-scenario"}},
		{[]string{"-scenario", file, "-csv"}, []string{"-csv", "-scenario"}},
		{[]string{"-preset", "chaos"}, []string{`unknown preset "chaos"`}},
		{[]string{"-preset", "sharded"}, []string{`unknown preset "sharded"`}},
		{[]string{"-quick"}, []string{"-quick"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a usage error still printed results:\n%s", c.args, &stdout)
		}
		for _, w := range c.want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("%v: stderr does not mention %q:\n%s", c.args, w, &stderr)
			}
		}
	}
}

// TestFigureSpecIsNotAScenario: a figure spec is regenerated with -fig; as
// a -scenario file it fails on the first field a scenario does not have,
// before anything prints or runs.
func TestFigureSpecIsNotAScenario(t *testing.T) {
	for _, extra := range [][]string{nil, {"-dryrun"}} {
		args := append([]string{"-scenario", "../../internal/experiments/specs/fig6a.json"}, extra...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed results:\n%s", args, &stdout)
		}
		if !strings.Contains(stderr.String(), `unknown field "figure"`) {
			t.Errorf("%v: stderr does not name the unknown field:\n%s", args, &stderr)
		}
	}
}

// TestChaosScenario runs the committed fault campaign — a seeded plan of
// crashes, flaps and a partition under per-link loss and duplication on
// the 4-shard lookahead engine — to its horizon. The plan is lossy, so
// the pass it must clear is the engine-invariant one (OSPF floods without
// retransmit; TestFaultPlanGolden holds the loss-free leg to route
// coherence).
func TestChaosScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "../../scenarios/chaos.json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	for _, want := range []string{"NodeCrashes:2 NodeRestarts:2", "SettleViolations:0", "coherence: ok"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output does not mention %q:\n%s", want, &stdout)
		}
	}
}
