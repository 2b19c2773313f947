package node_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"insitu/internal/ckpt"
	"insitu/internal/core"
	"insitu/internal/fleet"
)

// A single node's loop runs as a one-node fleet; these tests hold its
// checkpointer to what a standalone node needs across a crash.

func ckptCfg() fleet.Config {
	cfg := fleet.DefaultConfig(core.SystemInSituAI, 1, 11)
	cfg.Classes = 3
	cfg.PermClasses = 4
	return cfg
}

func historyJSON(t *testing.T, reps []fleet.RoundReport) []byte {
	t.Helper()
	b, err := json.Marshal(reps)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Full round trip through the on-disk store: run with per-stage
// snapshots, abandon the process state, resume, finish, and compare
// against an uninterrupted run.
func TestCheckpointerResumeMatchesUninterrupted(t *testing.T) {
	t.Parallel()
	cfg := ckptCfg()
	stages := []int{24, 32}

	base := fleet.New(cfg)
	baseline := []fleet.RoundReport{base.Bootstrap(32)}
	for _, n := range stages {
		baseline = append(baseline, base.RunRound(n))
	}
	base.Close()

	dir := t.TempDir()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(cfg)
	c := fleet.NewCheckpointer(store, f, 1)
	if err := c.OnRound(f.Bootstrap(32)); err != nil {
		t.Fatal(err)
	}
	if err := c.OnRound(f.RunRound(stages[0])); err != nil {
		t.Fatal(err)
	}

	// The crash: only the directory survives.
	f.Close()
	store2, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := fleet.ResumeCheckpointer(store2, cfg, 1)
	if err != nil {
		t.Fatalf("ResumeCheckpointer: %v", err)
	}
	f2 := c2.Fleet()
	defer f2.Close()
	if got := f2.Round(); got != 2 {
		t.Fatalf("resumed at stage %d, want 2", got)
	}
	for i := f2.Round() - 1; i < len(stages); i++ {
		if err := c2.OnRound(f2.RunRound(stages[i])); err != nil {
			t.Fatal(err)
		}
	}

	if a, b := historyJSON(t, baseline), historyJSON(t, c2.History()); !bytes.Equal(a, b) {
		t.Fatalf("resumed history diverged\nbase:    %s\nresumed: %s", a, b)
	}
}

// Cadence: Every=2 must snapshot after stages 2, 4, … but not odd ones.
func TestCheckpointerCadence(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(ckptCfg())
	defer f.Close()
	c := fleet.NewCheckpointer(store, f, 2)

	count := func() int {
		matches, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
		return len(matches)
	}
	if err := c.OnRound(f.Bootstrap(32)); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 0 {
		t.Fatalf("after bootstrap (1 report, cadence 2): %d snapshots, want 0", got)
	}
	if err := c.OnRound(f.RunRound(24)); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 1 {
		t.Fatalf("after stage 1 (2 reports, cadence 2): %d snapshots, want 1", got)
	}
}

// Resuming under a different config must fail loudly.
func TestResumeCheckpointerRejectsMismatch(t *testing.T) {
	t.Parallel()
	cfg := ckptCfg()
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(cfg)
	defer f.Close()
	c := fleet.NewCheckpointer(store, f, 1)
	if err := c.OnRound(f.Bootstrap(32)); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed++
	if _, err := fleet.ResumeCheckpointer(store, bad, 1); !errors.Is(err, fleet.ErrConfigMismatch) {
		t.Fatalf("ResumeCheckpointer under a different seed: %v, want ErrConfigMismatch", err)
	}
}
