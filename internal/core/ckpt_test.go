package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"insitu/internal/core"
	"insitu/internal/dataset"
	"insitu/internal/fleet"
	"insitu/internal/netsim"
)

// The closed loop's checkpoint is the one-node fleet's: these tests
// hold it to what a single node's loop needs across a crash.

func ckptConfig(seed uint64, faults bool) fleet.Config {
	cfg := fleet.DefaultConfig(core.SystemInSituAI, 1, seed)
	cfg.Classes = 3
	cfg.PermClasses = 4
	if faults {
		cfg.DownlinkFaults = netsim.FaultConfig{
			CorruptProb: 0.2,
			DropProb:    0.2,
			Outages:     []netsim.Outage{{Start: 1, End: 2}},
		}
	}
	return cfg
}

// bootstrapped returns a one-node fleet after a 32-image bootstrap and
// its checkpoint; the caller closes the fleet.
func bootstrapped(t *testing.T, cfg fleet.Config) (*fleet.Fleet, fleet.RoundReport, []byte) {
	t.Helper()
	f := fleet.New(cfg)
	rep := f.Bootstrap(32)
	var snap bytes.Buffer
	if err := f.Checkpoint(&snap); err != nil {
		f.Close()
		t.Fatalf("Checkpoint: %v", err)
	}
	return f, rep, snap.Bytes()
}

// The headline invariant: checkpoint after the bootstrap, resume in a
// fresh fleet, and every subsequent report is byte-identical to an
// uninterrupted run — across seeds, and under injected link faults
// (whose dice positions must survive the round trip too).
func TestCheckpointResumeDeterministic(t *testing.T) {
	t.Parallel()
	stages := []int{24, 32}
	for _, faults := range []bool{false, true} {
		for _, seed := range []uint64{3, 17, 42} {
			cfg := ckptConfig(seed, faults)

			base, boot, snap := bootstrapped(t, cfg)
			baseReps := []fleet.RoundReport{boot}
			for _, n := range stages {
				baseReps = append(baseReps, base.RunRound(n))
			}
			base.Close()

			resumed, err := fleet.Resume(cfg, bytes.NewReader(snap))
			if err != nil {
				t.Fatalf("seed %d faults %v: Resume: %v", seed, faults, err)
			}
			if resumed.Round() != 1 {
				resumed.Close()
				t.Fatalf("resumed at round %d, want 1", resumed.Round())
			}
			resReps := []fleet.RoundReport{boot}
			for _, n := range stages {
				resReps = append(resReps, resumed.RunRound(n))
			}
			resumed.Close()

			if a, b := reportsJSON(t, baseReps), reportsJSON(t, resReps); !bytes.Equal(a, b) {
				t.Errorf("seed %d faults %v: resumed reports diverge\nbase:    %s\nresumed: %s",
					seed, faults, a, b)
			}
		}
	}
}

// Resume must reject a checkpoint from a different experiment instead
// of silently mixing configurations.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	t.Parallel()
	f, _, snap := bootstrapped(t, ckptConfig(5, false))
	f.Close()

	for name, mutate := range map[string]func(*fleet.Config){
		"seed":    func(c *fleet.Config) { c.Seed++ },
		"kind":    func(c *fleet.Config) { c.Kind = core.SystemCloudAll },
		"classes": func(c *fleet.Config) { c.Classes++ },
		"faults":  func(c *fleet.Config) { c.DownlinkFaults = netsim.FaultConfig{DropProb: 0.5} },
	} {
		bad := ckptConfig(5, false)
		mutate(&bad)
		if g, err := fleet.Resume(bad, bytes.NewReader(snap)); err == nil {
			g.Close()
			t.Errorf("%s mismatch: Resume accepted an incompatible checkpoint", name)
		} else if name != "faults" && !errors.Is(err, core.ErrConfigMismatch) {
			t.Errorf("%s mismatch: Resume error = %v, want ErrConfigMismatch", name, err)
		}
	}
}

// Truncated checkpoint streams must error, never half-restore.
func TestResumeRejectsTruncated(t *testing.T) {
	t.Parallel()
	cfg := ckptConfig(5, false)
	f, _, raw := bootstrapped(t, cfg)
	f.Close()
	for _, cut := range []int{4, len(raw) / 3, len(raw) - 1} {
		if g, err := fleet.Resume(cfg, bytes.NewReader(raw[:cut])); err == nil {
			g.Close()
			t.Errorf("Resume accepted a stream truncated to %d bytes", cut)
		}
	}
}

// The replay-pool length is read from the stream, and Resume takes any
// reader: a count patched far beyond the samples that follow must run
// into the end of the stream, not ask the allocator for ~96 GiB.
func TestResumeRejectsInflatedPoolCount(t *testing.T) {
	t.Parallel()
	cfg := ckptConfig(5, false)
	f, boot, raw := bootstrapped(t, cfg)
	f.Close()

	// The pool closes the Cloud section; the node's blob follows, framed
	// by its u64 length. Find the frame whose length reaches exactly to
	// the end of the stream and is preceded by the pool.
	samples := boot.Admitted * (16 + int(dataset.ImageBytes))
	at := -1
	for blob := samples + 4; blob+8 <= len(raw); blob++ {
		if binary.LittleEndian.Uint64(raw[blob:]) != uint64(len(raw)-blob-8) {
			continue
		}
		if c := blob - samples - 4; int(binary.LittleEndian.Uint32(raw[c:])) == boot.Admitted {
			at = c
			break
		}
	}
	if at < 0 {
		t.Fatalf("no pool count of %d before a framed node blob closing the stream", boot.Admitted)
	}
	binary.LittleEndian.PutUint32(raw[at:], math.MaxUint32)
	if g, err := fleet.Resume(cfg, bytes.NewReader(raw)); err == nil {
		g.Close()
		t.Fatal("Resume accepted a pool count far beyond the stream")
	}
}

// A snapshot in the previous layout must fail on its magic, never be
// decoded as the current one.
func TestResumeRejectsPreviousMagic(t *testing.T) {
	t.Parallel()
	cfg := ckptConfig(5, false)
	f := fleet.New(cfg)
	var snap bytes.Buffer
	err := f.Checkpoint(&snap)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw := snap.Bytes()
	copy(raw, "ISFL0004")
	if g, err := fleet.Resume(cfg, bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "bad checkpoint magic") {
		if g != nil {
			g.Close()
		}
		t.Fatalf("Resume of an ISFL0004 stream: %v, want a bad-magic error", err)
	}
}
