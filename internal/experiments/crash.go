package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"

	"insitu/internal/ckpt"
	"insitu/internal/core"
	"insitu/internal/dataset"
	"insitu/internal/fleet"
	"insitu/internal/metrics"
	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/train"
)

// CrashResult is the crash-injection ablation: the closed loop is killed
// at every possible stage boundary (and the training loop at several
// step boundaries), resumed from its crash-safe snapshot, and the
// completed run compared against an uninterrupted baseline. Every row
// must be identical — checkpointing that changes results is worse than
// no checkpointing.
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
	// KillSteps / StepIdentical are the training-loop counterpart: the
	// supervised fine-tune killed after step k, resumed, and its final
	// weights+loss compared against an uninterrupted loop.
	KillSteps     []int
	StepIdentical []bool
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

	r.KillSteps, r.StepIdentical, r.Err = crashTrainLoop(s)
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

// crashTrainLoop kills the supervised fine-tune at several step
// boundaries and checks that the resumed loop's final weights and loss
// trajectory match an uninterrupted loop bit for bit.
func crashTrainLoop(s SystemScale) (killSteps []int, identical []bool, err error) {
	const steps = 24
	cfg := train.DefaultConfig(steps)
	cfg.BatchSize = 16

	baseSum, baseRes, err := runLoop(s, cfg, -1)
	if err != nil {
		return nil, nil, err
	}
	for _, kill := range []int{1, steps / 2, steps - 1} {
		sum, res, err := runLoop(s, cfg, kill)
		if err != nil {
			return nil, nil, err
		}
		killSteps = append(killSteps, kill)
		identical = append(identical, sum == baseSum && reflect.DeepEqual(res, baseRes))
	}
	return killSteps, identical, nil
}

// runLoop trains a fresh model over the scale's bootstrap set. kill >= 0
// saves at step kill, abandons the loop, and resumes a new one from the
// saved bytes before finishing. It returns a CRC of the final weights
// plus the run summary.
func runLoop(s SystemScale, cfg train.Config, kill int) (uint32, train.Result, error) {
	net, samples := loopWorld(s)
	l := train.NewLoop(net, samples, cfg, 4)
	var saved bytes.Buffer
	for l.Step() {
		if l.StepIndex() == kill {
			if err := l.Save(&saved); err != nil {
				return 0, train.Result{}, err
			}
			break
		}
	}
	if kill >= 0 {
		// The crash: rebuild everything from scratch and load the state.
		net2, samples2 := loopWorld(s)
		l = train.NewLoop(net2, samples2, cfg, 4)
		if err := l.Load(&saved); err != nil {
			return 0, train.Result{}, err
		}
		for l.Step() {
		}
	}
	var w bytes.Buffer
	if err := l.Net.SaveWeights(&w); err != nil {
		return 0, train.Result{}, err
	}
	return crc32.ChecksumIEEE(w.Bytes()), l.Result(), nil
}

// loopWorld deterministically regenerates the training-loop fixture: a
// fresh TinyAlex and the same sample set, exactly as a restarted
// process would.
func loopWorld(s SystemScale) (*nn.Network, []dataset.Sample) {
	world := dataset.NewGenerator(s.Classes, s.Seed+9)
	return models.TinyAlex(s.Classes, s.Seed+10), world.MixedSet(s.Bootstrap, 0.5, 0.6)
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
	for i, k := range r.KillSteps {
		t.AddRow(fmt.Sprintf("fine-tune step %d", k), verdict(r.StepIdentical[i]), "-")
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
