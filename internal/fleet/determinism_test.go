package fleet

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// fleetDigestChild marks a child process of TestFleetSameAtAnyGOMAXPROCS.
const fleetDigestChild = "INSITU_FLEET_DIGEST_CHILD"

// A run is a pure function of its config, on any core count. The shared
// tensor worker pool is sized once per process from GOMAXPROCS, so each
// value runs in a child process of this test binary: a two-node fleet
// with an uncapped retrain (the shape of the benchmark's cloud-bound
// workload), whose training batches span two pool chunks at two Ps. Each
// child prints the SHA-256 of its JSON RoundReports followed by its
// checkpoint, and the digests must be equal. The checkpoint carries the
// trained weights: a last-bit difference in a gradient sum rarely flips
// an accuracy or an upload count over a few dozen images, so the reports
// alone would not show it. GOMAXPROCS is not capped by the CPU count, so
// this runs a two-worker pool on a one-CPU host too.
func TestFleetSameAtAnyGOMAXPROCS(t *testing.T) {
	if os.Getenv(fleetDigestChild) != "" {
		cfg := testCfg(2)
		cfg.Shards = 2
		f := New(cfg)
		defer f.Close()
		reps := []RoundReport{f.Bootstrap(16), f.RunRound(32)}
		h := sha256.New()
		h.Write(reportJSON(t, reps))
		if err := f.Checkpoint(h); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("fleet-digest %x\n", h.Sum(nil))
		return
	}
	t.Parallel()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for _, procs := range []int{1, 2} {
		cmd := exec.Command(exe, "-test.run=^TestFleetSameAtAnyGOMAXPROCS$", "-test.count=1")
		cmd.Env = append(os.Environ(), fleetDigestChild+"=1", fmt.Sprintf("GOMAXPROCS=%d", procs))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d child: %v\n%s", procs, err, out)
		}
		var digest string
		for _, line := range strings.Split(string(out), "\n") {
			if d, ok := strings.CutPrefix(line, "fleet-digest "); ok {
				digest = d
			}
		}
		if digest == "" {
			t.Fatalf("GOMAXPROCS=%d child printed no digest:\n%s", procs, out)
		}
		t.Logf("GOMAXPROCS=%d: %s", procs, digest)
		if first == "" {
			first = digest
		} else if digest != first {
			t.Errorf("GOMAXPROCS=%d digest %s, GOMAXPROCS=1 digest %s", procs, digest, first)
		}
	}
}
