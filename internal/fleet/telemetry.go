package fleet

import (
	"strconv"
	"sync/atomic"

	"insitu/internal/telemetry"
)

// Fleet instrumentation: aggregate counters over every Fleet in the
// process plus per-node labeled series (one Prometheus family per
// metric, one {node="i"} series per worker) and fleet.round /
// fleet.upload / fleet.deploy trace events via Config.Trace. All
// counting happens on the server goroutine from collected round data,
// so the workers' hot path stays untouched.
type fleetStats struct {
	reg *telemetry.Registry

	rounds         *telemetry.Counter // fleet_rounds_total
	uploaded       *telemetry.Counter // fleet_uploaded_images_total (arrived at server)
	admitted       *telemetry.Counter // fleet_admitted_images_total (past the cap)
	trained        *telemetry.Counter // fleet_trained_images_total
	uploadFailures *telemetry.Counter // fleet_upload_failures_total (batches lost on uplinks)
	timeouts       *telemetry.Counter // fleet_timeouts_total (node-rounds abandoned)
	deployFailures *telemetry.Counter // fleet_deploy_failures_total
	staleDiscards  *telemetry.Counter // fleet_stale_messages_total (post-timeout leftovers)
	parked         *telemetry.Counter // fleet_parked_total (lease expiries)
	retrainSec     *telemetry.Gauge   // fleet_retrain_seconds_total (modeled, cumulative)
	meanAccuracy   *telemetry.Gauge   // fleet_mean_accuracy (last round)
	spills         *telemetry.Counter // fleet_node_spills_total (LRU evictions to disk)
	spillRestores  *telemetry.Counter // fleet_node_spill_restores_total (rehydrations)
}

var stats atomic.Pointer[fleetStats]

// EnableTelemetry registers the fleet counters with reg and turns on
// their updates; pass nil to disable.
func EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		stats.Store(nil)
		return
	}
	stats.Store(&fleetStats{
		reg:            reg,
		rounds:         reg.Counter("fleet_rounds_total"),
		uploaded:       reg.Counter("fleet_uploaded_images_total"),
		admitted:       reg.Counter("fleet_admitted_images_total"),
		trained:        reg.Counter("fleet_trained_images_total"),
		uploadFailures: reg.Counter("fleet_upload_failures_total"),
		timeouts:       reg.Counter("fleet_timeouts_total"),
		deployFailures: reg.Counter("fleet_deploy_failures_total"),
		staleDiscards:  reg.Counter("fleet_stale_messages_total"),
		parked:         reg.Counter("fleet_parked_total"),
		retrainSec:     reg.Gauge("fleet_retrain_seconds_total"),
		meanAccuracy:   reg.Gauge("fleet_mean_accuracy"),
		spills:         reg.Counter("fleet_node_spills_total"),
		spillRestores:  reg.Counter("fleet_node_spill_restores_total"),
	})
}

// nodeCounter returns the {node="id"} series of a counter family.
func (st *fleetStats) nodeCounter(name string, id int) *telemetry.Counter {
	return st.reg.Counter(telemetry.Label(name, "node", strconv.Itoa(id)))
}

// countStaleDiscard tallies a leftover message from a timed-out phase.
func countStaleDiscard() {
	if st := stats.Load(); st != nil {
		st.staleDiscards.Inc()
	}
}

// countParked tallies one lease expiry (a node parked out of a round).
func countParked() {
	if st := stats.Load(); st != nil {
		st.parked.Inc()
	}
}

// countShardQueue records one shard's queue depth as a {shard="i"}
// gauge series.
func countShardQueue(idx, n int) {
	if st := stats.Load(); st != nil {
		st.reg.Gauge(telemetry.Label("fleet_shard_queue_depth", "shard", strconv.Itoa(idx))).Set(float64(n))
	}
}

// countSpill tallies one node state evicted from a shard's LRU to disk.
func countSpill() {
	if st := stats.Load(); st != nil {
		st.spills.Inc()
	}
}

// countSpillRestore tallies one spilled node state rehydrated on demand.
func countSpillRestore() {
	if st := stats.Load(); st != nil {
		st.spillRestores.Inc()
	}
}

// record folds one finished round into the counters and emits its trace
// events, in node-id order (deterministic trace streams).
func (f *Fleet) record(rep RoundReport) {
	if st := stats.Load(); st != nil {
		st.rounds.Inc()
		st.uploaded.Add(int64(rep.Uploaded))
		st.admitted.Add(int64(rep.Admitted))
		st.trained.Add(int64(rep.Trained))
		st.retrainSec.Add(rep.CloudCost.Seconds)
		st.meanAccuracy.Set(rep.MeanAccuracy)
		for _, nr := range rep.Nodes {
			st.nodeCounter("fleet_node_uploaded_images_total", nr.Node).Add(int64(nr.Uploaded))
			st.nodeCounter("fleet_node_uploaded_bytes_total", nr.Node).Add(nr.UploadedBytes)
			if nr.UploadFailed {
				st.uploadFailures.Inc()
				st.nodeCounter("fleet_node_upload_failures_total", nr.Node).Inc()
			}
			if nr.TimedOut {
				st.timeouts.Inc()
				st.nodeCounter("fleet_node_timeouts_total", nr.Node).Inc()
			}
			if nr.DeployFailed {
				st.deployFailures.Inc()
				st.nodeCounter("fleet_node_deploy_failures_total", nr.Node).Inc()
			}
		}
	}
	tr := f.Cfg.Trace
	if tr == nil {
		return
	}
	for _, nr := range rep.Nodes {
		if nr.Uploaded > 0 {
			tr.Emit("fleet.upload", telemetry.Attrs{
				"round": rep.Round, "node": nr.Node, "images": nr.Uploaded,
				"bytes": nr.UploadedBytes, "admitted": nr.Admitted,
				"failed": nr.UploadFailed,
			})
		}
		if !nr.TimedOut {
			tr.Emit("fleet.deploy", telemetry.Attrs{
				"round": rep.Round, "node": nr.Node, "version": nr.ModelVersion,
				"attempts": nr.DeployAttempts, "failed": nr.DeployFailed,
				"stale": nr.StaleModel, "accuracy": nr.NodeAccuracy,
			})
		}
	}
	tr.Emit("fleet.round", telemetry.Attrs{
		"round": rep.Round, "kind": rep.Kind.String(), "nodes": len(rep.Nodes),
		"uploaded": rep.Uploaded, "admitted": rep.Admitted, "trained": rep.Trained,
		"version": rep.CloudVersion, "retrain_s": rep.CloudCost.Seconds,
		"mean_accuracy": rep.MeanAccuracy,
	})
}
