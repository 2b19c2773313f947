package experiments

import (
	"fmt"
	"math"

	"insitu/internal/core"
	"insitu/internal/fleet"
	"insitu/internal/metrics"
	"insitu/internal/netsim"
)

// DriftResult compares the In-situ AI loop against the statically
// trained edge model (the paper's Fig. 1(b) baseline) as the environment
// drifts harder stage by stage — the motivating phenomenon of the whole
// paper ("the statically trained model could not efficiently handle the
// dynamic data in the real in-situ environments").
type DriftResult struct {
	Severities []float64
	InSituAcc  []float64 // In-situ AI (variant d), adapting
	StaticAcc  []float64 // frozen edge model
}

// AblationDrift bootstraps both deployments at low severity, then ramps
// the severity each stage. The In-situ AI node keeps uploading
// unrecognized data and updating; the static node's links go dark right
// after its bootstrap transfer, so nothing it captures reaches the Cloud
// and no update reaches it — it serves the bootstrap model forever.
func AblationDrift(s SystemScale) DriftResult {
	severities := []float64{0.3, 0.5, 0.7, 0.9}
	cfg := s.config(core.SystemInSituAI)
	cfg.Severity = severities[0]
	dark := netsim.FaultConfig{Outages: []netsim.Outage{{Start: 1, End: math.MaxInt64}}}
	staticCfg := cfg
	staticCfg.UplinkFaults, staticCfg.DownlinkFaults = dark, dark
	adaptive, static := fleet.New(cfg), fleet.New(staticCfg)
	defer adaptive.Close()
	defer static.Close()
	adaptive.Bootstrap(s.Bootstrap)
	static.Bootstrap(s.Bootstrap)

	r := DriftResult{}
	stage := s.Bootstrap
	for _, sev := range severities {
		adaptive.SetSeverity(sev)
		static.SetSeverity(sev)
		ra := adaptive.RunRound(stage)
		rs := static.RunRound(stage)
		r.Severities = append(r.Severities, sev)
		r.InSituAcc = append(r.InSituAcc, ra.Nodes[0].NodeAccuracy)
		r.StaticAcc = append(r.StaticAcc, rs.Nodes[0].NodeAccuracy)
	}
	return r
}

// Table renders the result.
func (r DriftResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation — adaptation under environment drift",
		"severity", "In-situ AI accuracy", "static edge accuracy")
	for i := range r.Severities {
		t.AddRow(fmt.Sprintf("%.1f", r.Severities[i]),
			fmt.Sprintf("%.3f", r.InSituAcc[i]),
			fmt.Sprintf("%.3f", r.StaticAcc[i]))
	}
	return t
}

// QuantResult measures the deployment quantization tradeoff: the 16-bit
// fixed-point analysis formats plus the executable int8 path.
type QuantResult struct {
	Formats   []string
	Accuracy  []float64 // after quantization
	FloatAcc  float64   // before
	MaxAbsErr []float64 // NaN when the scheme has no single step size (int8 is per-channel)
	Traffic   []float64 // per-format off-chip weight traffic vs float32
	LatencyMS []float64 // measured per-image inference latency
	// FloatLatencyMS is the float32 baseline per-image latency.
	FloatLatencyMS float64
	// TrafficRatio is the 16-bit formats' weight traffic vs float32.
	TrafficRatio float64
}

// Table renders the result.
func (r QuantResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation — deployment quantization (float32: accuracy %.3f, %.2f ms/img)",
			r.FloatAcc, r.FloatLatencyMS),
		"format", "accuracy", "max |err|", "weight traffic", "ms/img")
	for i := range r.Formats {
		maxErr := "per-channel"
		if !math.IsNaN(r.MaxAbsErr[i]) {
			maxErr = fmt.Sprintf("%.5f", r.MaxAbsErr[i])
		}
		t.AddRow(r.Formats[i],
			fmt.Sprintf("%.3f", r.Accuracy[i]),
			maxErr,
			fmt.Sprintf("×%.2f", r.Traffic[i]),
			fmt.Sprintf("%.2f", r.LatencyMS[i]))
	}
	return t
}
