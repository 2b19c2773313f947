package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const fixture = "testdata/mod"

// The fixture's dead declarations: a func only a test names, a type no
// run builds together with its method (which shares its name with a
// live method), and a func the allow file lists. Used and Live.Run are
// reached from main, the second only through an interface.
var fixtureDead = []string{"lib.Allowed", "lib.Dead", "lib.Dead.Run", "lib.OnlyTests"}

func TestFindReportsExactlyTheDeadDeclarations(t *testing.T) {
	got, err := find(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fixtureDead) {
		t.Fatalf("find = %q, want %q", got, fixtureDead)
	}
}

func TestRunExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name, allow string
		want        int
		stdout      string // a line run must print
		stderr      string // a fragment run must report
	}{
		{name: "all listed", allow: "lib.Allowed  kept\nlib.Dead  kept\nlib.OnlyTests  kept\n", want: 0},
		{name: "unlisted", allow: "lib.Allowed  kept\nlib.Dead  kept\n", want: 1, stdout: "lib.OnlyTests"},
		{name: "stale", allow: "lib.Allowed  kept\nlib.Dead  kept\nlib.OnlyTests  kept\nlib.Used  was dead once\n", want: 1, stderr: "stale entry lib.Used"},
		{name: "no reason", allow: "lib.Allowed\nlib.Dead  kept\nlib.OnlyTests  kept\n", want: 1, stderr: "has no reason"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "allow")
			if err := os.WriteFile(path, []byte(tc.allow), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if got := run(fixture, path, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit %d, want %d; stdout %q, stderr %q", got, tc.want, stdout.String(), stderr.String())
			}
			if tc.stdout != "" && !strings.Contains("\n"+stdout.String(), "\n"+tc.stdout+"\n") {
				t.Errorf("stdout %q does not list %s", stdout.String(), tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not say %q", stderr.String(), tc.stderr)
			}
		})
	}
}
