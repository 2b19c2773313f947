package cloud

import (
	"testing"

	"insitu/internal/models"
)

func TestUpdateCostScalesWithSamples(t *testing.T) {
	m := NewCostModel()
	spec := models.AlexNet()
	c1 := m.UpdateCost(spec, 1000, 0)
	c2 := m.UpdateCost(spec, 2000, 0)
	if c2.Seconds <= c1.Seconds || c2.Joules <= c1.Joules {
		t.Fatal("cost should grow with samples")
	}
	ratio := c2.Seconds / c1.Seconds
	if ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("cost not linear in samples: ratio %v", ratio)
	}
}

func TestWeightSharingCutsUpdateCost(t *testing.T) {
	m := NewCostModel()
	spec := models.AlexNet()
	full := m.UpdateCost(spec, 1000, 0)
	shared := m.UpdateCost(spec, 1000, 3)
	if shared.Seconds >= full.Seconds {
		t.Fatal("locking layers should cut cost")
	}
	speedup := full.Seconds / shared.Seconds
	// Fig. 6 ballpark: ~1.3–1.7× for AlexNet CONV-3 in pure op terms.
	if speedup < 1.1 || speedup > 2.0 {
		t.Fatalf("CONV-3 speedup = %v, implausible", speedup)
	}
}

// updateSpeedup returns how much faster variant-d style updates (err-only
// data + weight sharing) are than variant-a style updates (all data, full
// network) under m — the Fig. 25 speedup series.
func updateSpeedup(m CostModel, spec models.NetSpec, allSamples, errSamples, lockedConvs int) float64 {
	return m.UpdateCost(spec, allSamples, 0).Seconds / m.UpdateCost(spec, errSamples, lockedConvs).Seconds
}

func TestUpdateSpeedupCombinesBothSavings(t *testing.T) {
	m := NewCostModel()
	spec := models.AlexNet()
	// Err-only data (29%) + CONV-3 sharing: speedup must exceed either
	// alone.
	s := updateSpeedup(m, spec, 1000, 290, 3)
	dataOnly := updateSpeedup(m, spec, 1000, 290, 0)
	shareOnly := updateSpeedup(m, spec, 1000, 1000, 3)
	if s <= dataOnly || s <= shareOnly {
		t.Fatalf("combined speedup %v not above parts (%v, %v)", s, dataOnly, shareOnly)
	}
}

func TestFig25SpeedupBand(t *testing.T) {
	// Paper: 1.4–3.3× model-update speedup as error fraction falls from
	// 0.72 to 0.29. Check both ends land in a plausible band.
	m := NewCostModel()
	spec := models.AlexNet()
	early := updateSpeedup(m, spec, 1000, 720, 3)
	late := updateSpeedup(m, spec, 1000, 290, 3)
	if early < 1.2 || early > 2.5 {
		t.Fatalf("early-stage speedup = %v, want ~1.4-1.9", early)
	}
	if late < 2.5 || late > 6 {
		t.Fatalf("late-stage speedup = %v, want ~3.3-4.6", late)
	}
	if late <= early {
		t.Fatal("speedup must grow as error fraction falls")
	}
}

func TestPretrainCostPositiveAndScales(t *testing.T) {
	m := NewCostModel()
	diag := models.DiagnosisSpec(models.AlexNet(), 100)
	c := m.PretrainCost(diag, 1000, 0)
	if c.Seconds <= 0 || c.Joules <= 0 {
		t.Fatalf("degenerate pretrain cost %+v", c)
	}
	c2 := m.PretrainCost(diag, 3000, 0)
	if c2.Seconds/c.Seconds < 2.9 || c2.Seconds/c.Seconds > 3.1 {
		t.Fatalf("pretrain cost not linear: %v", c2.Seconds/c.Seconds)
	}
}

// Pre-training and updates share one pricing rule
// (transfer.TrainingOpsPerSample); these are the costs the rule gave
// before they shared it, so the round reports' priced costs stay put.
func TestPretrainCostPinned(t *testing.T) {
	m := NewCostModel()
	diag := models.DiagnosisSpec(models.AlexNet(), 100)
	for _, tc := range []struct {
		locked          int
		seconds, joules float64
	}{
		{0, 8.796101666666667, 2199.025416666667},
		{3, 6.929936666666666, 1732.4841666666666},
		{5, 5.871536666666667, 1467.8841666666667},
	} {
		if got := m.PretrainCost(diag, 1000, tc.locked); got != (Cost{Seconds: tc.seconds, Joules: tc.joules}) {
			t.Errorf("locked %d: PretrainCost = %+v, want {%v %v}", tc.locked, got, tc.seconds, tc.joules)
		}
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{Seconds: 1, Joules: 2}
	a.Add(Cost{Seconds: 3, Joules: 4})
	if a.Seconds != 4 || a.Joules != 6 {
		t.Fatalf("Add = %+v", a)
	}
}

func TestTitanXUpdateTimeScalePlausible(t *testing.T) {
	// 100k AlexNet samples × 2 epochs full training on a Titan X should
	// take minutes-to-an-hour, not milliseconds or days.
	m := NewCostModel()
	c := m.UpdateCost(models.AlexNet(), 100_000, 0)
	if c.Seconds < 60 || c.Seconds > 3600 {
		t.Fatalf("100k-sample update = %v s, implausible", c.Seconds)
	}
}

func TestPretrainCostLockedCheaper(t *testing.T) {
	m := NewCostModel()
	diag := models.DiagnosisSpec(models.AlexNet(), 100)
	full := m.PretrainCost(diag, 1000, 0)
	locked := m.PretrainCost(diag, 1000, 3)
	if locked.Seconds >= full.Seconds {
		t.Fatalf("locked pretrain %v not below full %v", locked.Seconds, full.Seconds)
	}
	// Freezing everything conv saves at most the weight-gradient third.
	if locked.Seconds < full.Seconds*0.5 {
		t.Fatalf("locked pretrain %v implausibly cheap vs %v", locked.Seconds, full.Seconds)
	}
}
