package fleet

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"insitu/internal/netsim"
)

// The tentpole contract: sharding, batching and state spilling are pure
// throughput/memory valves — RoundReports must be byte-identical for
// every (Shards, BatchSize, BatchWait, MaxLiveNodes) combination,
// because batch boundaries never reach the protocol and admission stays
// a node-id-ordered merge over the complete round.
func TestFleetDeterministicAcrossShardTopologies(t *testing.T) {
	t.Parallel()
	base := testCfg(8)
	base.UplinkFaults = netsim.FaultConfig{DropProb: 0.2}
	base.MaxRoundSamples = 64
	base.MaxCalibSamples = 64
	base.EvalSamples = 8
	rounds := []int{12}

	ref := reportJSON(t, run(base, 16, rounds))

	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"shards=1", func(c *Config) { c.Shards = 1 }},
		{"shards=4", func(c *Config) { c.Shards = 4 }},
		{"shards=16(clamped)", func(c *Config) { c.Shards = 16 }},
		{"batch-wait=0/batch=1", func(c *Config) { c.Shards = 4; c.BatchSize = 1 }},
		{"batch-wait=5ms", func(c *Config) { c.Shards = 4; c.BatchWait = 5 * time.Millisecond }},
		{"spill", func(c *Config) { c.Shards = 4; c.MaxLiveNodes = 2 }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			v.mut(&cfg)
			got := reportJSON(t, run(cfg, 16, rounds))
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s diverged from the default topology:\n%s\n---\n%s", v.name, ref, got)
			}
		})
	}
}

// submitN pushes n distinct messages through b concurrently and returns
// the per-submit errors.
func submitN(b *batcher, n int) chan error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(id int) {
			errs <- b.submit(roundMsg{node: id, kind: cmdCapture})
		}(i)
	}
	return errs
}

// A full batch must flush without any deadline: size is the primary
// valve.
func TestBatcherFlushOnSize(t *testing.T) {
	t.Parallel()
	b := newBatcher(16, 4, time.Hour) // deadline effectively never
	defer b.stop()
	errs := submitN(b, 4)
	select {
	case batch := <-b.out:
		if len(batch) != 4 {
			t.Fatalf("flushed %d messages, want 4", len(batch))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("full batch never flushed despite size >= batchSize")
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

// A partial batch must flush once its deadline expires, even though the
// batch never fills.
func TestBatcherFlushOnDeadline(t *testing.T) {
	t.Parallel()
	b := newBatcher(16, 1000, 20*time.Millisecond)
	defer b.stop()
	errs := submitN(b, 3)
	start := time.Now()
	select {
	case batch := <-b.out:
		if len(batch) != 3 {
			t.Fatalf("flushed %d messages, want 3", len(batch))
		}
		if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
			t.Fatalf("partial batch flushed after %v, before the 20ms deadline", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partial batch never aged out")
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

// With wait=0 a pending batch flushes as soon as the consumer reads —
// no timer involved.
func TestBatcherFlushImmediatelyWhenNoWait(t *testing.T) {
	t.Parallel()
	b := newBatcher(16, 1000, 0)
	defer b.stop()
	errs := submitN(b, 1)
	select {
	case batch := <-b.out:
		if len(batch) != 1 {
			t.Fatalf("flushed %d messages, want 1", len(batch))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait=0 batch never flushed")
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// Shutdown must answer every pending submitter with errBatcherClosed —
// nobody may hang, and late submits fail the same way.
func TestBatcherFanbackOnShutdown(t *testing.T) {
	t.Parallel()
	b := newBatcher(16, 1000, time.Hour)
	errs := submitN(b, 5)
	// Give the run loop a moment to accumulate the pending items, then
	// kill it with the batch unflushed.
	time.Sleep(20 * time.Millisecond)
	b.stop()
	for i := 0; i < 5; i++ {
		select {
		case err := <-errs:
			if err != errBatcherClosed {
				t.Fatalf("pending submit got %v, want errBatcherClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending submitter hung across stop")
		}
	}
	if err := b.submit(roundMsg{}); err != errBatcherClosed {
		t.Fatalf("late submit got %v, want errBatcherClosed", err)
	}
}

// The spill LRU must round-trip node state bit-identically: evict a
// node mid-run, rehydrate it, and its stateBytes must match what was
// spilled.
func TestNodeCacheSpillRestoreRoundTrip(t *testing.T) {
	t.Parallel()
	cfg := testCfg(4)
	cfg.Shards = 1
	cfg.MaxLiveNodes = 2
	f := New(cfg)
	defer f.Close()
	f.Bootstrap(16) // hydrates all 4 nodes through the one shard; 2 spill

	cache := f.shards[0].cache
	if len(cache.spilled) == 0 {
		t.Fatal("maxLive=2 over 4 nodes spilled nothing")
	}
	// Snapshot a spilled node's on-disk state, rehydrate it through get,
	// and compare the serialized state: restore must be bit-exact.
	// (spilled stays set once a node has been rehydrated, with a stale
	// file behind it: only a node that is not live right now will do.)
	victim := -1
	for id := range cache.spilled {
		if _, live := cache.live[id]; !live {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Fatal("every spilled node is live again")
	}
	want, err := readSpill(cache, victim)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cache.get(victim)
	if err != nil {
		t.Fatalf("rehydrating node %d: %v", victim, err)
	}
	got, err := stateBytes(n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("node %d state changed across spill/restore (%d vs %d bytes)", victim, len(want), len(got))
	}
	if cache.lru.Len() > 2 {
		t.Fatalf("cache holds %d live nodes, cap is 2", cache.lru.Len())
	}
}

func readSpill(c *nodeCache, id int) ([]byte, error) {
	data, err := os.ReadFile(c.path(id))
	if err != nil {
		return nil, fmt.Errorf("reading spill for node %d: %w", id, err)
	}
	return data, nil
}
