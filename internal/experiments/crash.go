package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"insitu/internal/ckpt"
	"insitu/internal/core"
	"insitu/internal/fleet"
	"insitu/internal/metrics"
)

// CrashResult is the crash-injection ablation: the closed loop is killed
// at every possible stage boundary, resumed from its crash-safe
// snapshot, and the completed run compared against an uninterrupted
// baseline. Every row must be identical — checkpointing that changes
// results is worse than no checkpointing.
type CrashResult struct {
	// KillStages are the stage indices the loop was killed after
	// (0 = right after bootstrap).
	KillStages []int
	// Identical reports whether the resumed run's full report history is
	// byte-identical (JSON) to the baseline's.
	Identical []bool
	// Accuracy is the resumed run's final deployed accuracy.
	Accuracy []float64
	// BaselineAccuracy is the uninterrupted run's final accuracy.
	BaselineAccuracy float64
	// Err is the first harness error (I/O, resume failure), nil when the
	// sweep completed.
	Err error
}

// AblationCrash runs the In-situ AI variant (d) through the schedule
// once uninterrupted, then once per stage boundary with a simulated
// crash there (state abandoned, process state rebuilt purely from the
// snapshot directory) — including any configured link faults, whose
// dice positions must also survive the crash.
func AblationCrash(s SystemScale) CrashResult {
	cfg := s.config(core.SystemInSituAI)
	cfg.DownlinkFaults = s.Faults

	var r CrashResult

	// Uninterrupted baseline.
	baseline := s.run(cfg)
	r.BaselineAccuracy = baseline[len(baseline)-1].MeanAccuracy
	baseJSON, err := json.Marshal(baseline)
	if err != nil {
		r.Err = err
		return r
	}

	for kill := 0; kill <= len(s.Stages); kill++ {
		history, err := crashAtStage(cfg, s, kill)
		if err != nil {
			r.Err = err
			return r
		}
		got, err := json.Marshal(history)
		if err != nil {
			r.Err = err
			return r
		}
		r.KillStages = append(r.KillStages, kill)
		r.Identical = append(r.Identical, bytes.Equal(got, baseJSON))
		r.Accuracy = append(r.Accuracy, history[len(history)-1].MeanAccuracy)
	}
	return r
}

// crashAtStage runs the loop up to and including stage kill with
// per-stage snapshots, abandons the live fleet (the crash), resumes
// from the snapshot directory and finishes the schedule. It returns the
// resumed run's complete report history.
func crashAtStage(cfg fleet.Config, s SystemScale, kill int) ([]fleet.RoundReport, error) {
	dir, err := os.MkdirTemp("", "insitu-crash-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := ckpt.Open(dir)
	if err != nil {
		return nil, err
	}

	// Run until the kill point, snapshotting every stage.
	f := fleet.New(cfg)
	defer f.Close()
	c := fleet.NewCheckpointer(store, f, 1)
	if err := c.OnRound(f.Bootstrap(s.Bootstrap)); err != nil {
		return nil, err
	}
	for i := 0; i < kill; i++ {
		if err := c.OnRound(f.RunRound(s.Stages[i])); err != nil {
			return nil, err
		}
	}
	// The crash: the live fleet is stopped and dropped on the floor, like
	// a SIGKILL. Everything below sees only the snapshot directory.
	f.Close()
	store2, err := ckpt.Open(dir)
	if err != nil {
		return nil, err
	}
	c2, err := fleet.ResumeCheckpointer(store2, cfg, 1)
	if err != nil {
		return nil, fmt.Errorf("resume after kill at stage %d: %w", kill, err)
	}
	f2 := c2.Fleet()
	defer f2.Close()
	for i := f2.Round() - 1; i < len(s.Stages); i++ {
		if err := c2.OnRound(f2.RunRound(s.Stages[i])); err != nil {
			return nil, err
		}
	}
	return c2.History(), nil
}

// Table renders the result.
func (r CrashResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation — crash injection and deterministic resume (variant d)",
		"kill point", "resumed == uninterrupted", "final accuracy")
	for i, k := range r.KillStages {
		name := fmt.Sprintf("after stage %d", k)
		if k == 0 {
			name = "after bootstrap"
		}
		t.AddRow(name, verdict(r.Identical[i]), fmt.Sprintf("%.3f (baseline %.3f)", r.Accuracy[i], r.BaselineAccuracy))
	}
	if r.Err != nil {
		t.AddRow(fmt.Sprintf("harness error: %v", r.Err))
	}
	return t
}

func verdict(ok bool) string {
	if ok {
		return "identical"
	}
	return "DIVERGED"
}
