package main

import (
	"bytes"
	"strings"
	"testing"
)

// Flags that cannot describe a model are usage errors: exit 2 with one
// line on stderr, before anything is generated or trained.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-images", "0"},
		{"-classes", "1"},
		{"-perms", "1"},
		{"-check", "missing.isdp", "-classes", "1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "insitu-train: -") {
			t.Errorf("%v: stderr %q, want one insitu-train usage line", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, want empty", args, stdout.String())
		}
	}
}
