package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"

	"insitu/internal/ckpt"
)

// Crash-safe persistence of the closed loop. Checkpoint serializes the
// COMPLETE mutable state of a System — the loop position and environment
// here, everything else through the two halves' own codecs
// (cloud.Server.Save, Node.SaveState) — so that Resume can rebuild a
// System that continues the run bit-identically to one that was never
// interrupted. The headline invariant, enforced by internal/experiments'
// crash harness and `make crash-smoke`: kill the process at any stage
// boundary, resume, and the final report is byte-identical to an
// uninterrupted run's.

// ckptMagic 0003: both halves' sections lost the diagnoser's never-drawn
// RNG word; the bump makes a 0002 snapshot fail on its magic instead of
// mis-decoding.
const ckptMagic = "ISCS0003"

// ErrConfigMismatch is returned by Resume when the checkpoint was taken
// under an incompatible configuration (different seed, variant, class
// count…) — resuming would silently produce a different experiment.
var ErrConfigMismatch = errors.New("core: checkpoint config mismatch")

// fingerprint lists the identity-defining configuration as named u64s.
func fingerprint(cfg Config, faulty bool) ([]string, []uint64) {
	return []string{"kind", "classes", "perm-classes", "shared-convs", "probes",
			"seed", "frozen-model", "faults-enabled", "in-situ-frac (float bits)"},
		[]uint64{
			uint64(cfg.Kind), uint64(cfg.Classes), uint64(cfg.PermClasses),
			uint64(cfg.SharedConvs), uint64(cfg.Probes), cfg.Seed,
			ckpt.BoolU64(cfg.FrozenModel), ckpt.BoolU64(faulty),
			math.Float64bits(cfg.InSituFrac),
		}
}

// Checkpoint writes the system's complete mutable state to w. The
// stream carries a fingerprint of the identity-defining configuration,
// which Resume verifies; the caller supplies the full Config (links,
// cost models, retry budgets) when resuming.
func (s *System) Checkpoint(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(ckptMagic); err != nil {
		return err
	}
	_, fp := fingerprint(s.Cfg, s.node.downlink != nil)
	if err := ckpt.WriteU64s(bw, fp...); err != nil {
		return err
	}
	if err := ckpt.WriteU64s(bw, uint64(s.stage), math.Float64bits(s.Cfg.Severity)); err != nil {
		return err
	}
	if err := s.cloud.Save(bw); err != nil {
		return err
	}
	if err := ckpt.WriteBlob(bw, s.node.SaveState); err != nil {
		return err
	}
	return bw.Flush()
}

// Resume rebuilds a System from cfg and a checkpoint stream written by
// Checkpoint. cfg must describe the same experiment (Resume verifies the
// identity fingerprint); what SetSeverity mutates at run time is
// restored from the checkpoint. The restored weights are validated — a
// corrupt-but-CRC-valid model is rejected rather than served.
func Resume(cfg Config, r io.Reader) (*System, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	if string(magic) != ckptMagic {
		return nil, fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	names, want := fingerprint(cfg, cfg.Faults.Enabled())
	got := make([]uint64, len(want))
	if err := ckpt.ReadU64s(br, got); err != nil {
		return nil, err
	}
	for i := range want {
		if got[i] != want[i] {
			return nil, fmt.Errorf("%w: %s is %d in the checkpoint, %d in the config",
				ErrConfigMismatch, names[i], got[i], want[i])
		}
	}
	prog := make([]uint64, 2)
	if err := ckpt.ReadU64s(br, prog); err != nil {
		return nil, err
	}
	s := NewSystem(cfg)
	s.stage = int(prog[0])
	s.SetSeverity(math.Float64frombits(prog[1]))
	if err := s.cloud.Load(br); err != nil {
		return nil, err
	}
	if err := ckpt.ReadBlob(br, s.node.LoadState); err != nil {
		return nil, err
	}
	return s, nil
}

// Stage returns the loop position: 0 before Bootstrap, then 1 plus the
// number of incremental stages completed. A resumed system reports the
// position it was checkpointed at, which is how callers know which
// stages remain.
func (s *System) Stage() int { return s.stage }
