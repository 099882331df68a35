package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// golden is the recording `defined-record -topology ebone -events 5
// -window 6` writes; cmd/defined-record's TestRecordGolden holds the
// command to it byte for byte.
const golden = "testdata/ebone-e5-w6.json"

// TestDebugGolden is the debug half of the record → debug pipeline: the
// documented script steps three groups, dumps node 0's routing table and
// continues to the end of the replay, and the session's shape and final
// delivery count are pinned.
func TestDebugGolden(t *testing.T) {
	script := "group\ngroup\ngroup\nstate 0\ncontinue\nquit\n"
	var stdout, stderr bytes.Buffer
	code := run([]string{"-topology", "ebone", "-recording", golden}, strings.NewReader(script), &stdout, &stderr)
	if code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	out := stdout.String()
	for _, want := range []string{
		"loaded " + golden + ": 14 recorded events, 28 groups\n",
		"defined-ls debugger — 25 nodes, group 0\n",
		"(defined) group 3 round 0, 25 pending, done=false\n",
		"(defined) node 0 state:\ndest 1 via 4 cost 91\n",
		"dest 24 via 23 cost 37\n",
		"(defined) replay complete after 1956 more deliveries\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("session does not contain %q", want)
		}
	}
	if !strings.HasSuffix(out, "(defined) bye\n") {
		t.Errorf("session did not end at quit:\n%s", out)
	}
}

// TestDebugStaleInput: a recording that cannot be replayed on the named
// topology — made elsewhere, missing, not a recording — exits 1 with the
// reason on stderr and nothing on stdout; no session opens.
func TestDebugStaleInput(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-topology", "sprintlink", "-recording", golden}, 1, `recording was made on "ebone", not "sprintlink"`},
		{[]string{"-topology", "ebone", "-recording", filepath.Join(t.TempDir(), "missing.json")}, 1, "no such file or directory"},
		{[]string{"-topology", "ebone", "-recording", "main_test.go"}, 1, "record: decoding"},
		{[]string{"-topology", "nowhere", "-recording", golden}, 1, "nowhere"},
		{[]string{"-bogus"}, 2, "-bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, strings.NewReader("continue\n"), &stdout, &stderr); code != c.code {
			t.Errorf("%v: exit %d, want %d", c.args, code, c.code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a refused recording still opened a session:\n%s", c.args, &stdout)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr does not mention %q:\n%s", c.args, c.want, &stderr)
		}
	}
}
