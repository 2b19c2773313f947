package experiments

import (
	"fmt"

	"insitu/internal/core"
	"insitu/internal/metrics"
	"insitu/internal/netsim"
)

// FaultsResult sweeps the downlink fault rate against the closed loop's
// outcomes: what an imperfect OTA path costs in accuracy, deliveries and
// retransmitted data — the resilience counterpart of Table II.
type FaultsResult struct {
	Rates []float64
	// Accuracy is the node's deployed-model accuracy after the last stage.
	Accuracy []float64
	// Attempts is the total downlink deliveries across all stages.
	Attempts []int
	// FailedStages counts stages whose deployment never landed.
	FailedStages []int
	// StaleStages counts stages the node ended behind the Cloud's model.
	StaleStages []int
	// RetransmitKB is the redelivery traffic over the whole run.
	RetransmitKB []float64
	// NodeVersion / CloudVersion show how far the node lagged at the end.
	NodeVersion  []uint32
	CloudVersion []uint32
}

// AblationFaults runs the In-situ AI variant (d) through an identical
// capture schedule under increasing per-transfer fault rates (half
// corruption, half drops) and reports how the loop degrades and
// recovers. Rate 0 is the fault-free baseline.
func AblationFaults(s SystemScale) FaultsResult {
	var r FaultsResult
	for _, rate := range []float64{0, 0.2, 0.4, 0.6} {
		cfg := s.config(core.SystemInSituAI)
		cfg.DownlinkFaults = netsim.FaultConfig{CorruptProb: rate / 2, DropProb: rate / 2}
		reports := s.run(cfg)
		var attempts, failed, stale int
		var retransmit int64
		for _, rep := range reports {
			nr := rep.Nodes[0]
			attempts += nr.DeployAttempts
			if nr.DeployFailed {
				failed++
			}
			if nr.StaleModel {
				stale++
			}
			retransmit += nr.RetransmitBytes
		}
		last := reports[len(reports)-1]
		r.Rates = append(r.Rates, rate)
		r.Accuracy = append(r.Accuracy, last.Nodes[0].NodeAccuracy)
		r.Attempts = append(r.Attempts, attempts)
		r.FailedStages = append(r.FailedStages, failed)
		r.StaleStages = append(r.StaleStages, stale)
		r.RetransmitKB = append(r.RetransmitKB, float64(retransmit)/1e3)
		r.NodeVersion = append(r.NodeVersion, last.Nodes[0].ModelVersion)
		r.CloudVersion = append(r.CloudVersion, last.CloudVersion)
	}
	return r
}

// Table renders the result.
func (r FaultsResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation — closed loop under downlink faults (variant d)",
		"fault rate", "accuracy", "deliveries", "failed stages", "stale stages",
		"retransmit (KB)", "node/cloud version")
	for i := range r.Rates {
		t.AddRow(fmt.Sprintf("%.1f", r.Rates[i]),
			fmt.Sprintf("%.3f", r.Accuracy[i]),
			fmt.Sprintf("%d", r.Attempts[i]),
			fmt.Sprintf("%d", r.FailedStages[i]),
			fmt.Sprintf("%d", r.StaleStages[i]),
			fmt.Sprintf("%.1f", r.RetransmitKB[i]),
			fmt.Sprintf("v%d/v%d", r.NodeVersion[i], r.CloudVersion[i]))
	}
	return t
}
