package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecordGolden is the record half of the record → debug pipeline
// (`-topology ebone -events 5 -window 6`, the run .claude/skills/verify
// documents): the summary line is pinned, and the file written must be
// byte-identical to the recording committed next to defined-debug, whose
// own golden test replays it — so a drift on either side of the file
// format fails one of the two.
func TestRecordGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "rec.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-topology", "ebone", "-events", "5", "-window", "6", "-o", out}, &stdout, &stderr)
	if code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	const summary = "recorded 14 external events over 28 groups on ebone (7056 deliveries, 751 rollbacks, 826 anti-messages)\n"
	if !strings.HasPrefix(stdout.String(), summary) {
		t.Errorf("summary line drifted:\n%s", &stdout)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../defined-debug/testdata/ebone-e5-w6.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recording differs from cmd/defined-debug/testdata/ebone-e5-w6.json (regenerate it with the flags above if the change is intended)")
	}
}

// TestRecordErrors: a run that cannot produce a complete recording exits
// 1 with a message and no summary; a bad flag exits 2.
func TestRecordErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-topology", "nowhere"}, 1, "nowhere"},
		{[]string{"-topology", "ebone", "-events", "1", "-window", "1", "-o", filepath.Join(t.TempDir(), "no", "such", "dir", "rec.json")}, 1, "no such file or directory"},
		{[]string{"-bogus"}, 2, "-bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%v: exit %d, want %d", c.args, code, c.code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a failed run still printed a summary:\n%s", c.args, &stdout)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr does not mention %q:\n%s", c.args, c.want, &stderr)
		}
	}
}
