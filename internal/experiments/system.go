package experiments

import (
	"fmt"

	"insitu/internal/cloud"
	"insitu/internal/core"
	"insitu/internal/fleet"
	"insitu/internal/metrics"
	"insitu/internal/netsim"
)

// SystemScale sizes the closed-loop experiments (Table II, Fig. 25 and
// the drift, fault and crash ablations), each a one-node fleet. The
// paper's stages are 100k/200k/400k/800k/1200k images; these are the
// same schedule scaled to a single CPU core.
type SystemScale struct {
	Bootstrap int
	Stages    []int
	Classes   int
	Perms     int
	Seed      uint64
	// Faults injects downlink faults into every variant's deploy path
	// (the CLIs wire -fault-rate/-outage here); zero = perfect link.
	Faults netsim.FaultConfig
}

// SmallSystem is the test-suite scale.
var SmallSystem = SystemScale{Bootstrap: 96, Stages: []int{64, 96}, Classes: 4, Perms: 6, Seed: 31}

// PaperSystem is the benchmark scale (stage sizes in the paper's 1:2:4:8:12
// proportions, ÷1000).
var PaperSystem = SystemScale{Bootstrap: 100, Stages: []int{200, 400, 800, 1200}, Classes: 5, Perms: 8, Seed: 31}

// config is the one-node fleet that runs one variant at this scale.
// Each variant's node draws the same data (node 0's shard of Seed), so
// the four differ only in what they move and train on.
func (s SystemScale) config(kind core.SystemKind) fleet.Config {
	cfg := fleet.DefaultConfig(kind, 1, s.Seed)
	cfg.Classes = s.Classes
	cfg.PermClasses = s.Perms
	return cfg
}

// run drives a fleet built from cfg through the scale's bootstrap and
// stages and returns every round report, bootstrap first.
func (s SystemScale) run(cfg fleet.Config) []fleet.RoundReport {
	f := fleet.New(cfg)
	defer f.Close()
	reps := []fleet.RoundReport{f.Bootstrap(s.Bootstrap)}
	for _, n := range s.Stages {
		reps = append(reps, f.RunRound(n))
	}
	return reps
}

// Comparison holds the four Fig. 24 variants' reports over one capture
// schedule, round 0 being the bootstrap — the machinery behind Table II
// and Fig. 25.
type Comparison struct {
	Reports map[core.SystemKind][]fleet.RoundReport
}

// RunSystems executes the four-variant comparison at the given scale.
func RunSystems(s SystemScale) *Comparison {
	c := &Comparison{Reports: make(map[core.SystemKind][]fleet.RoundReport)}
	for _, kind := range core.AllKinds() {
		cfg := s.config(kind)
		cfg.DownlinkFaults = s.Faults
		c.Reports[kind] = s.run(cfg)
	}
	return c
}

// uplink sums a round's metered uplink bytes and transmit energy over
// its nodes.
func uplink(rep fleet.RoundReport) (bytes int64, joules float64) {
	for _, nr := range rep.Nodes {
		bytes += nr.UploadedBytes
		joules += nr.UplinkJoules
	}
	return bytes, joules
}

// DataMovementRatio returns the stage's uploaded bytes of a variant
// normalized to variant (a) — the Table II metric. Stage 0 is the
// bootstrap.
func (c *Comparison) DataMovementRatio(kind core.SystemKind, stage int) float64 {
	base, _ := uplink(c.Reports[core.SystemCloudAll][stage])
	if base == 0 {
		return 0
	}
	own, _ := uplink(c.Reports[kind][stage])
	return float64(own) / float64(base)
}

// CumulativeCloudCost sums a variant's modeled Cloud cost over all
// stages including bootstrap.
func (c *Comparison) CumulativeCloudCost(kind core.SystemKind) cloud.Cost {
	var total cloud.Cost
	for _, r := range c.Reports[kind] {
		total.Add(r.CloudCost)
	}
	return total
}

// CumulativeUplinkJoules sums a variant's uplink transmit energy.
func (c *Comparison) CumulativeUplinkJoules(kind core.SystemKind) float64 {
	var total float64
	for _, r := range c.Reports[kind] {
		_, j := uplink(r)
		total += j
	}
	return total
}

// UpdateSpeedup returns variant (a)'s modeled update time over the given
// variant's at one stage — the Fig. 25 speedup series.
func (c *Comparison) UpdateSpeedup(kind core.SystemKind, stage int) float64 {
	base := c.Reports[core.SystemCloudAll][stage].CloudCost.Seconds
	own := c.Reports[kind][stage].CloudCost.Seconds
	if own == 0 {
		return 1
	}
	return base / own
}

// DataMovementSaving returns the total fraction of bytes the variant
// avoided moving relative to (a) across all stages — the headline
// "reduce data movement by 28–71%" number.
func (c *Comparison) DataMovementSaving(kind core.SystemKind) float64 {
	var base, own int64
	for i := range c.Reports[core.SystemCloudAll] {
		b, _ := uplink(c.Reports[core.SystemCloudAll][i])
		o, _ := uplink(c.Reports[kind][i])
		base += b
		own += o
	}
	if base == 0 {
		return 0
	}
	return 1 - float64(own)/float64(base)
}

// EnergySaving returns the variant's combined (uplink + Cloud) energy
// saving relative to (a) — the headline "30–70% energy saving".
func (c *Comparison) EnergySaving(kind core.SystemKind) float64 {
	baseCost := c.CumulativeCloudCost(core.SystemCloudAll)
	base := baseCost.Joules + c.CumulativeUplinkJoules(core.SystemCloudAll)
	ownCost := c.CumulativeCloudCost(kind)
	own := ownCost.Joules + c.CumulativeUplinkJoules(kind)
	if base == 0 {
		return 0
	}
	return 1 - own/base
}

// TableIIResult carries the normalized data-movement table.
type TableIIResult struct {
	Stages []int // stage indices, 0 = bootstrap
	AB     []float64
	CD     []float64
	// Accuracy is the In-situ AI variant's deployed accuracy per stage.
	Accuracy []float64
}

// TableII reproduces "A Comparison of Normalized Data Movement": the a/b
// variants move everything (ratio 1); the c/d variants' ratio falls as
// the model improves.
func TableII(cmp *Comparison) TableIIResult {
	n := len(cmp.Reports[core.SystemCloudAll])
	r := TableIIResult{}
	for stage := 0; stage < n; stage++ {
		r.Stages = append(r.Stages, stage)
		r.AB = append(r.AB, cmp.DataMovementRatio(core.SystemCloudDiagnosis, stage))
		r.CD = append(r.CD, cmp.DataMovementRatio(core.SystemInSituAI, stage))
		r.Accuracy = append(r.Accuracy, cmp.Reports[core.SystemInSituAI][stage].MeanAccuracy)
	}
	return r
}

// Table renders the result.
func (r TableIIResult) Table() *metrics.Table {
	cols := append([]string{"IoT system"}, sprintStages(r.Stages)...)
	t := metrics.NewTable("Table II — normalized data movement per stage", cols...)
	abRow := []string{"a/b"}
	cdRow := []string{"c/d"}
	accRow := []string{"accuracy (d)"}
	for i := range r.Stages {
		abRow = append(abRow, fmt.Sprintf("%.2f", r.AB[i]))
		cdRow = append(cdRow, fmt.Sprintf("%.2f", r.CD[i]))
		accRow = append(accRow, fmt.Sprintf("%.2f", r.Accuracy[i]))
	}
	t.AddRow(abRow...)
	t.AddRow(cdRow...)
	t.AddRow(accRow...)
	return t
}

func sprintStages(stages []int) []string {
	out := make([]string, len(stages))
	for i, s := range stages {
		if s == 0 {
			out[i] = "bootstrap"
		} else {
			out[i] = fmt.Sprintf("stage %d", s)
		}
	}
	return out
}

// Fig25Result carries the Cloud energy / model-update-time comparison.
type Fig25Result struct {
	Kinds []core.SystemKind
	// EnergyJ and UpdateSeconds are cumulative over all stages.
	EnergyJ       map[core.SystemKind]float64
	UpdateSeconds map[core.SystemKind]float64
	// SpeedupVsA is per-stage: In-situ AI update speedup over variant a.
	SpeedupVsA []float64
	// Headline savings of the In-situ AI variant.
	DataMovementSaving float64
	EnergySaving       float64
}

// Fig25 reproduces "Energy Consumption and Model Update Time" across the
// four IoT systems, plus the headline savings.
func Fig25(cmp *Comparison) Fig25Result {
	r := Fig25Result{
		Kinds:         core.AllKinds(),
		EnergyJ:       map[core.SystemKind]float64{},
		UpdateSeconds: map[core.SystemKind]float64{},
	}
	for _, k := range r.Kinds {
		cost := cmp.CumulativeCloudCost(k)
		r.EnergyJ[k] = cost.Joules + cmp.CumulativeUplinkJoules(k)
		r.UpdateSeconds[k] = cost.Seconds
	}
	for stage := 1; stage < len(cmp.Reports[core.SystemInSituAI]); stage++ {
		r.SpeedupVsA = append(r.SpeedupVsA, cmp.UpdateSpeedup(core.SystemInSituAI, stage))
	}
	r.DataMovementSaving = cmp.DataMovementSaving(core.SystemInSituAI)
	r.EnergySaving = cmp.EnergySaving(core.SystemInSituAI)
	return r
}

// Table renders the result.
func (r Fig25Result) Table() *metrics.Table {
	t := metrics.NewTable("Fig. 25 — cumulative Cloud energy and model-update time",
		"system", "energy (J)", "update time (s)")
	for _, k := range r.Kinds {
		t.AddRow(k.String(),
			fmt.Sprintf("%.1f", r.EnergyJ[k]),
			fmt.Sprintf("%.2f", r.UpdateSeconds[k]))
	}
	speedups := "speedup d vs a per stage:"
	for _, s := range r.SpeedupVsA {
		speedups += fmt.Sprintf(" %.2fx", s)
	}
	t.AddRow(speedups)
	t.AddRow(fmt.Sprintf("data movement saving %.0f%%, energy saving %.0f%%",
		r.DataMovementSaving*100, r.EnergySaving*100))
	return t
}
