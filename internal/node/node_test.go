package node

import (
	"testing"

	"insitu/internal/device"
	"insitu/internal/gpusim"
	"insitu/internal/models"
)

func baseConfig() Config {
	inf := models.AlexNet()
	return Config{
		Sim:          gpusim.New(device.TX1()),
		Inference:    inf,
		Diagnosis:    models.DiagnosisSpec(inf, 100),
		FrameRate:    30,
		LatencyReq:   0.2,
		DaySeconds:   120,
		NightSeconds: 120,
	}
}

func TestFeasibleRateMeetsDeadlines(t *testing.T) {
	cfg := baseConfig()
	rep := Run(cfg)
	if rep.Frames != 3600 {
		t.Fatalf("frames = %d", rep.Frames)
	}
	if missRate(rep) > 0.01 {
		t.Fatalf("miss rate %v at a feasible rate (batch %d, max latency %v)",
			missRate(rep), rep.InferenceBatchN, rep.MaxLatency)
	}
	if rep.AvgLatency <= 0 || rep.AvgLatency > cfg.LatencyReq {
		t.Fatalf("avg latency %v", rep.AvgLatency)
	}
}

func TestOverloadMissesDeadlines(t *testing.T) {
	cfg := baseConfig()
	cfg.FrameRate = 2000 // far beyond TX1 capacity (~225 img/s)
	cfg.DaySeconds = 10
	rep := Run(cfg)
	if missRate(rep) < 0.3 {
		t.Fatalf("overload miss rate = %v, want large", missRate(rep))
	}
}

func TestBatchingBeatsNonBatchEnergy(t *testing.T) {
	// The whole point of the time model: the planned batch serves the
	// same frames with less busy time (and so less energy) than the
	// non-batching deployment.
	planned := Run(baseConfig())
	single := baseConfig()
	single.InferenceBatch = 1
	nonBatch := Run(single)
	if planned.InferenceBatchN <= 1 {
		t.Fatalf("planner picked batch %d", planned.InferenceBatchN)
	}
	if planned.InferenceBusy >= nonBatch.InferenceBusy {
		t.Fatalf("planned busy %v not below non-batch %v", planned.InferenceBusy, nonBatch.InferenceBusy)
	}
	if planned.EnergyJ >= nonBatch.EnergyJ {
		t.Fatalf("planned energy %v not below non-batch %v", planned.EnergyJ, nonBatch.EnergyJ)
	}
	if missRate(nonBatch) > missRate(planned)+0.05 {
		t.Fatalf("non-batch missed more: %v vs %v", missRate(nonBatch), missRate(planned))
	}
}

func TestNightDrainsBacklog(t *testing.T) {
	cfg := baseConfig()
	rep := Run(cfg)
	if rep.Backlog != 0 {
		t.Fatalf("backlog %d after a long night", rep.Backlog)
	}
	if rep.DiagnosedFrames != rep.Frames {
		t.Fatalf("diagnosed %d of %d", rep.DiagnosedFrames, rep.Frames)
	}
}

func TestShortNightLeavesBacklog(t *testing.T) {
	cfg := baseConfig()
	cfg.NightSeconds = 0.05
	rep := Run(cfg)
	if rep.Backlog == 0 {
		t.Fatal("a 50ms night cannot drain 3600 diagnoses")
	}
	if rep.DiagnosedFrames+rep.Backlog != rep.Frames {
		t.Fatalf("diagnosis accounting broken: %d + %d != %d",
			rep.DiagnosedFrames, rep.Backlog, rep.Frames)
	}
}

func TestDiagnosisTimeScales(t *testing.T) {
	sim := gpusim.New(device.TX1())
	diag := models.DiagnosisSpec(models.AlexNet(), 100)
	t1 := DiagnosisTime(sim, diag, 1)
	t16 := DiagnosisTime(sim, diag, 16)
	if t16 <= t1 {
		t.Fatalf("diagnosis batch time should grow: %v -> %v", t1, t16)
	}
	// But per image it should shrink (batching efficiency).
	if t16/16 >= t1 {
		t.Fatalf("per-image diagnosis time should shrink: %v vs %v", t16/16, t1)
	}
}

func TestEnergyAccountingConsistent(t *testing.T) {
	cfg := baseConfig()
	rep := Run(cfg)
	spec := cfg.Sim.Spec
	total := cfg.DaySeconds + cfg.NightSeconds
	minE := total * spec.IdlePowerW
	maxE := total * spec.PowerW
	if rep.EnergyJ < minE || rep.EnergyJ > maxE {
		t.Fatalf("energy %v outside [%v, %v]", rep.EnergyJ, minE, maxE)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	cfg := baseConfig()
	cfg.FrameRate = 0
	defer func() {
		if recover() == nil {
			t.Fatal("zero frame rate accepted")
		}
	}()
	Run(cfg)
}

func TestLowRateTimeoutDispatch(t *testing.T) {
	// At 2 frames/s with a big planned batch, the deadline-aware timeout
	// must dispatch partial batches; nothing should miss.
	cfg := baseConfig()
	cfg.FrameRate = 2
	cfg.DaySeconds = 30
	rep := Run(cfg)
	if missRate(rep) > 0 {
		t.Fatalf("low-rate misses: %v (batches %d)", missRate(rep), rep.Batches)
	}
	if rep.Batches < 10 {
		t.Fatalf("timeout dispatch not happening: %d batches for %d frames", rep.Batches, rep.Frames)
	}
}

func TestNightTailBatchShrinksToFit(t *testing.T) {
	// 200 frames, batch 100: the night window fits one full batch plus
	// roughly half of another. The final batch must shrink to drain what
	// fits instead of stranding the whole second batch.
	cfg := baseConfig()
	cfg.FrameRate = 20
	cfg.DaySeconds = 10
	cfg.DiagnosisBatch = 100
	dt100 := DiagnosisTime(cfg.Sim, cfg.Diagnosis, 100)
	dt50 := DiagnosisTime(cfg.Sim, cfg.Diagnosis, 50)
	cfg.NightSeconds = dt100 + dt50 + 1e-9
	rep := Run(cfg)
	if rep.Frames != 200 {
		t.Fatalf("frames = %d", rep.Frames)
	}
	if rep.DiagnosedFrames <= 100 {
		t.Fatalf("tail batch stranded: diagnosed %d of %d", rep.DiagnosedFrames, rep.Frames)
	}
	if rep.DiagnosedFrames+rep.Backlog != rep.Frames {
		t.Fatalf("accounting broken: %d + %d != %d", rep.DiagnosedFrames, rep.Backlog, rep.Frames)
	}
	if rep.DiagnosisBusy > cfg.NightSeconds {
		t.Fatalf("night overran: busy %v of %v", rep.DiagnosisBusy, cfg.NightSeconds)
	}
}

func TestNightWindowFullyDrainsWithTail(t *testing.T) {
	// A window sized for one full batch plus the exact 60-frame tail must
	// drain everything.
	cfg := baseConfig()
	cfg.FrameRate = 16
	cfg.DaySeconds = 10 // 160 frames
	cfg.DiagnosisBatch = 100
	cfg.NightSeconds = DiagnosisTime(cfg.Sim, cfg.Diagnosis, 100) +
		DiagnosisTime(cfg.Sim, cfg.Diagnosis, 60) + 1e-9
	rep := Run(cfg)
	if rep.Backlog != 0 || rep.DiagnosedFrames != 160 {
		t.Fatalf("tail not drained: diagnosed %d, backlog %d", rep.DiagnosedFrames, rep.Backlog)
	}
}

func TestZeroNightWindowRejected(t *testing.T) {
	cfg := baseConfig()
	cfg.NightSeconds = 0
	defer func() {
		if recover() == nil {
			t.Fatal("zero night window accepted: a no-diagnosis cycle would silently pass")
		}
	}()
	Run(cfg)
}

// missRate returns the fraction of r's frames that missed the deadline.
func missRate(r Report) float64 {
	if r.Frames == 0 {
		return 0
	}
	return float64(r.DeadlineMisses) / float64(r.Frames)
}
