package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"insitu/internal/dataset"
	"insitu/internal/netsim"
)

func ckptConfig(seed uint64, faults bool) Config {
	cfg := DefaultConfig(SystemInSituAI, seed)
	cfg.Classes = 3
	cfg.PermClasses = 4
	if faults {
		cfg.Faults = netsim.FaultConfig{
			Seed:        seed + 101,
			CorruptProb: 0.2,
			DropProb:    0.2,
			Outages:     []netsim.Outage{{Start: 1, End: 2}},
		}
	}
	return cfg
}

func reportsJSON(t *testing.T, reps []StageReport) []byte {
	t.Helper()
	b, err := json.Marshal(reps)
	if err != nil {
		t.Fatalf("marshal reports: %v", err)
	}
	return b
}

// The headline invariant: checkpoint after any stage, resume in a fresh
// System, and every subsequent report is byte-identical to an
// uninterrupted run — across seeds, and under injected link faults
// (whose dice positions must survive the round trip too).
func TestCheckpointResumeDeterministic(t *testing.T) {
	stages := []int{24, 32}
	for _, faults := range []bool{false, true} {
		for _, seed := range []uint64{3, 17, 42} {
			cfg := ckptConfig(seed, faults)

			base := NewSystem(cfg)
			var baseReps []StageReport
			baseReps = append(baseReps, base.Bootstrap(32))
			var snap bytes.Buffer
			if err := base.Checkpoint(&snap); err != nil {
				t.Fatalf("seed %d faults %v: Checkpoint: %v", seed, faults, err)
			}
			for _, n := range stages {
				baseReps = append(baseReps, base.RunStage(n))
			}

			resumed, err := Resume(cfg, bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatalf("seed %d faults %v: Resume: %v", seed, faults, err)
			}
			if resumed.Stage() != 1 {
				t.Fatalf("resumed at stage %d, want 1", resumed.Stage())
			}
			resReps := []StageReport{baseReps[0]}
			for _, n := range stages {
				resReps = append(resReps, resumed.RunStage(n))
			}

			if !bytes.Equal(reportsJSON(t, baseReps), reportsJSON(t, resReps)) {
				t.Errorf("seed %d faults %v: resumed reports diverge\nbase:    %s\nresumed: %s",
					seed, faults, reportsJSON(t, baseReps), reportsJSON(t, resReps))
			}
			if got, want := resumed.Meter().Bytes, base.Meter().Bytes; got != want {
				t.Errorf("seed %d faults %v: meter bytes %d != %d", seed, faults, got, want)
			}
		}
	}
}

// A checkpoint taken mid-run must also restore the *later* loop
// position: checkpoint after stage 1, resume, and the remaining stage
// must match.
func TestCheckpointMidRun(t *testing.T) {
	cfg := ckptConfig(9, true)
	base := NewSystem(cfg)
	base.Bootstrap(32)
	base.RunStage(24)
	var snap bytes.Buffer
	if err := base.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	want := base.RunStage(32)

	resumed, err := Resume(cfg, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stage() != 2 {
		t.Fatalf("resumed at stage %d, want 2", resumed.Stage())
	}
	got := resumed.RunStage(32)
	if !bytes.Equal(reportsJSON(t, []StageReport{want}), reportsJSON(t, []StageReport{got})) {
		t.Fatalf("mid-run resume diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// Resume must reject a checkpoint from a different experiment instead
// of silently mixing configurations.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	cfg := ckptConfig(5, false)
	sys := NewSystem(cfg)
	sys.Bootstrap(32)
	var snap bytes.Buffer
	if err := sys.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed++ },
		"kind":    func(c *Config) { c.Kind = SystemCloudAll },
		"classes": func(c *Config) { c.Classes++ },
		"faults":  func(c *Config) { c.Faults = netsim.FaultConfig{DropProb: 0.5, Seed: 1} },
	} {
		bad := ckptConfig(5, false)
		mutate(&bad)
		if _, err := Resume(bad, bytes.NewReader(snap.Bytes())); err == nil {
			t.Errorf("%s mismatch: Resume accepted an incompatible checkpoint", name)
		}
	}
}

// Truncated checkpoint streams must error, never half-restore.
func TestResumeRejectsTruncated(t *testing.T) {
	cfg := ckptConfig(5, false)
	sys := NewSystem(cfg)
	sys.Bootstrap(32)
	var snap bytes.Buffer
	if err := sys.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	raw := snap.Bytes()
	for _, cut := range []int{4, len(raw) / 3, len(raw) - 1} {
		if _, err := Resume(cfg, bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("Resume accepted a stream truncated to %d bytes", cut)
		}
	}
}

// The replay-pool length is read from the stream, and Resume takes any
// reader: a count patched far beyond the samples that follow must run
// into the end of the stream, not ask the allocator for ~96 GiB.
func TestResumeRejectsInflatedPoolCount(t *testing.T) {
	cfg := ckptConfig(5, false)
	sys := NewSystem(cfg)
	sys.Bootstrap(32)
	var snap, node bytes.Buffer
	if err := sys.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	if err := sys.node.SaveState(&node); err != nil {
		t.Fatal(err)
	}
	raw := snap.Bytes()
	// The pool closes the Cloud section; the node's framed blob follows.
	at := len(raw) - (8 + node.Len()) - 32*(16+int(dataset.ImageBytes)) - 4
	if got := binary.LittleEndian.Uint32(raw[at:]); got != 32 {
		t.Fatalf("pool count at offset %d reads %d, want 32", at, got)
	}
	binary.LittleEndian.PutUint32(raw[at:], math.MaxUint32)
	if _, err := Resume(cfg, bytes.NewReader(raw)); err == nil {
		t.Fatal("Resume accepted a pool count far beyond the stream")
	}
}

// A snapshot in the previous layout must fail on its magic, never be
// decoded as the current one.
func TestResumeRejectsPreviousMagic(t *testing.T) {
	cfg := ckptConfig(5, false)
	sys := NewSystem(cfg)
	var snap bytes.Buffer
	if err := sys.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	raw := snap.Bytes()
	copy(raw, "ISCS0002")
	if _, err := Resume(cfg, bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "bad checkpoint magic") {
		t.Fatalf("Resume of an ISCS0002 stream: %v, want a bad-magic error", err)
	}
}
