package experiments

import (
	"fmt"
	"runtime"

	"insitu/internal/cloud"
	"insitu/internal/core"
	"insitu/internal/fleet"
	"insitu/internal/metrics"
	"insitu/internal/netsim"
)

// FleetScale sizes the multi-node scaling experiment: the same In-situ
// AI closed loop run at each fleet size in Sizes, with a fixed per-round
// admission cap so the server's serialized retrain does not grow with N.
type FleetScale struct {
	// Sizes are the fleet sizes N to sweep (first entry is the baseline
	// the speedups are measured against).
	Sizes     []int
	Bootstrap int // per-node bootstrap capture
	Rounds    []int
	Classes   int
	Perms     int
	Seed      uint64
	// MaxRoundSamples caps the server's per-round retrain intake;
	// MaxCalibSamples the pooled calibration set (0 = unlimited).
	MaxRoundSamples int
	MaxCalibSamples int
	// Shards/MaxLiveNodes are the sharded-ingestion valves (zero values =
	// fleet defaults: one shard per node, everything resident). Results
	// are byte-identical for every setting; wall-clock and memory are what
	// they move.
	Shards       int
	MaxLiveNodes int
	// EvalSamples shrinks each node's post-deploy evaluation (0 = the
	// paper-faithful 120) — the dominant compute term at large N.
	EvalSamples int
	// Faults injects downlink faults into every deploy path.
	Faults netsim.FaultConfig
}

// SmallFleet is the test-suite scale.
var SmallFleet = FleetScale{
	Sizes: []int{1, 4, 16}, Bootstrap: 24, Rounds: []int{16},
	Classes: 3, Perms: 4, Seed: 31, MaxRoundSamples: 48,
}

// PaperFleet is the benchmark scale (Sec. VI deployment sizes).
var PaperFleet = FleetScale{
	Sizes: []int{1, 4, 16, 64}, Bootstrap: 64, Rounds: []int{48, 48},
	Classes: 5, Perms: 8, Seed: 31, MaxRoundSamples: 128,
}

// ScaleFleet is the sharded-ingestion scale sweep: N=1k with every
// valve engaged — sharded workers, capped admission and calibration,
// shrunken per-node evaluation, and cold state spilled past 128
// resident nodes. The interesting columns are peak heap and
// p99 admission latency, not accuracy (three tiny rounds teach the
// model nothing).
var ScaleFleet = FleetScale{
	Sizes: []int{1000}, Bootstrap: 8, Rounds: []int{6, 6},
	Classes: 3, Perms: 4, Seed: 31,
	MaxRoundSamples: 256, MaxCalibSamples: 256,
	Shards: 8, MaxLiveNodes: 128, EvalSamples: 8,
}

// FleetRow is one fleet size's outcome.
type FleetRow struct {
	Nodes int
	// Shards echoes the ingestion topology the row ran under (0 = one
	// shard per node).
	Shards      int
	WallSeconds float64
	// Throughput is aggregate node throughput: images captured and
	// diagnosed fleet-wide per wall-clock second.
	Throughput float64
	// Speedup is Throughput over the baseline (first) size's.
	Speedup float64
	// AdmitP99Seconds is the p99 wall-clock latency from a round's
	// broadcast to the server admitting a node's response, over every
	// response in the run.
	AdmitP99Seconds float64
	// PeakHeapBytes is the largest live heap observed at any round
	// boundary (runtime.ReadMemStats.HeapAlloc) — the O(N) vs O(cap)
	// resident-state story.
	PeakHeapBytes uint64
	// BytesPerUpload is the mean metered uplink bytes per successfully
	// uploaded sample — flat across N and deterministic (one
	// dataset.ImageBytes image per upload).
	BytesPerUpload float64
	// Per-node Table-II-style metrics, averaged over nodes and rounds:
	// these stay flat as N grows — scaling the fleet must not change any
	// single node's costs.
	UploadFrac     float64
	UplinkJoules   float64
	PerNodeCloudJ  float64
	PerNodeCloudS  float64
	MeanAccuracy   float64 // final round, averaged over nodes
	AggregateCloud cloud.Cost
}

// FleetResult carries the scaling sweep.
type FleetResult struct {
	Rows []FleetRow
}

// AblationFleet sweeps fleet sizes through the same schedule and
// measures aggregate node throughput next to the per-node costs. The
// per-node columns should be flat across sizes (each node does the same
// work and pays an amortized share of the one aggregated retrain) while
// throughput climbs with N until the admission cap's serialized retrain
// dominates.
func AblationFleet(s FleetScale) FleetResult {
	r := FleetResult{}
	for _, n := range s.Sizes {
		cfg := fleet.DefaultConfig(core.SystemInSituAI, n, s.Seed)
		cfg.Classes = s.Classes
		cfg.PermClasses = s.Perms
		cfg.MaxRoundSamples = s.MaxRoundSamples
		cfg.MaxCalibSamples = s.MaxCalibSamples
		cfg.Shards = s.Shards
		cfg.MaxLiveNodes = s.MaxLiveNodes
		cfg.EvalSamples = s.EvalSamples
		cfg.DownlinkFaults = s.Faults

		f := fleet.New(cfg)
		var peakHeap uint64
		noteHeap := func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap {
				peakHeap = ms.HeapAlloc
			}
		}
		reps := []fleet.RoundReport{f.Bootstrap(s.Bootstrap)}
		noteHeap()
		for _, size := range s.Rounds {
			reps = append(reps, f.RunRound(size))
			noteHeap()
		}
		wall := f.WallSeconds()
		admitP99 := f.AdmitLatencyP99()
		f.Close()

		row := FleetRow{
			Nodes: n, Shards: s.Shards, WallSeconds: wall,
			AdmitP99Seconds: admitP99, PeakHeapBytes: peakHeap,
		}
		captured := 0
		fracN := 0
		uploaded := 0
		var uploadedBytes int64
		for _, rep := range reps {
			for _, nr := range rep.Nodes {
				captured += nr.Captured
				if nr.Captured > 0 {
					row.UploadFrac += nr.UploadFrac
					row.UplinkJoules += nr.UplinkJoules
					fracN++
				}
				if !nr.UploadFailed && nr.Uploaded > 0 {
					uploaded += nr.Uploaded
					uploadedBytes += nr.UploadedBytes
				}
			}
			row.PerNodeCloudJ += rep.PerNodeCloudCost.Joules
			row.PerNodeCloudS += rep.PerNodeCloudCost.Seconds
			row.AggregateCloud.Add(rep.CloudCost)
		}
		if fracN > 0 {
			row.UploadFrac /= float64(fracN)
			row.UplinkJoules /= float64(fracN)
		}
		if uploaded > 0 {
			row.BytesPerUpload = float64(uploadedBytes) / float64(uploaded)
		}
		row.MeanAccuracy = reps[len(reps)-1].MeanAccuracy
		if wall > 0 {
			row.Throughput = float64(captured) / wall
		}
		if len(r.Rows) > 0 && r.Rows[0].Throughput > 0 {
			row.Speedup = row.Throughput / r.Rows[0].Throughput
		} else {
			row.Speedup = 1
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Table renders the sweep. The wall-clock, latency and heap columns
// vary run to run; the per-node cost columns are deterministic.
func (r FleetResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation — fleet scaling (aggregate throughput vs per-node cost)",
		"nodes", "wall (s)", "imgs/s", "speedup", "admit p99 (ms)", "peak heap (MB)",
		"upload frac", "B/upload", "uplink (J)", "cloud/node (J)", "cloud/node (s)", "accuracy")
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%.2f", row.WallSeconds),
			fmt.Sprintf("%.1f", row.Throughput),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%.1f", row.AdmitP99Seconds*1e3),
			fmt.Sprintf("%.1f", float64(row.PeakHeapBytes)/(1<<20)),
			fmt.Sprintf("%.2f", row.UploadFrac),
			fmt.Sprintf("%.0f", row.BytesPerUpload),
			fmt.Sprintf("%.2f", row.UplinkJoules),
			fmt.Sprintf("%.1f", row.PerNodeCloudJ),
			fmt.Sprintf("%.2f", row.PerNodeCloudS),
			fmt.Sprintf("%.2f", row.MeanAccuracy),
		)
	}
	return t
}
