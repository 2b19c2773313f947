package fleetcli

import "testing"

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
