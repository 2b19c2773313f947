package fleetcli

import (
	"flag"
	"testing"
)

// -max-live-nodes below the shard count cannot bind (every shard keeps
// one node resident): a usage error, before anything is built. The
// default -shards 0 — one shard per node — is the case that used to run
// and silently spill nothing.
func TestRunRejectsMaxLiveNodesBelowShardCount(t *testing.T) {
	for _, shards := range []int{0, 16} {
		o := Options{Variant: "d", Nodes: 1000, Shards: shards, MaxLiveNodes: 8}
		if code := o.Run(); code != 2 {
			t.Fatalf("-nodes 1000 -shards %d -max-live-nodes 8: exit %d, want 2", shards, code)
		}
	}
}

// -resume has nothing to resume from without -state-dir: the run fails
// before building a fleet.
func TestRunRejectsResumeWithoutStateDir(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("insitu-fleet", flag.ContinueOnError)
	o.AddFlags(fs)
	if err := fs.Parse([]string{"-nodes", "1", "-resume"}); err != nil {
		t.Fatal(err)
	}
	if code := o.Run(); code != 1 {
		t.Fatalf("-resume without -state-dir: exit %d, want 1", code)
	}
	if _, err := o.openStore(); err == nil || err.Error() != "-resume requires -state-dir" {
		t.Fatalf("openStore error %v, want \"-resume requires -state-dir\"", err)
	}
}
