package fleet

import (
	"insitu/internal/health"
	"insitu/internal/telemetry"
)

// recordHealth feeds one finished round into the health tracker and
// emits a fleet.health trace event per node, in node-id order.
// admitLats maps node id → wall-clock seconds from the round's
// broadcast to the server admitting that node's capture response;
// responded holds the deploy-phase messages (a node absent from it
// never reported an accuracy this round).
//
// Everything here is observability: verdicts derive from wall-clock
// latency and may legitimately differ between two runs of the same
// Config, which is why none of it feeds back into the RoundReport.
func (f *Fleet) recordHealth(rep RoundReport, admitLats map[int]float64, responded map[int]roundMsg) {
	ht := f.Cfg.Health
	if ht == nil {
		return
	}
	if len(f.shards) > 0 {
		// Round-boundary snapshot of the ingestion path: per-shard queue
		// depths (normally 0 here — a hot shard shows up as a laggard).
		depths := make([]int, len(f.shards))
		for i, s := range f.shards {
			depths[i] = len(s.queue)
		}
		ht.RecordIngest(depths)
	}
	tr := f.Cfg.Trace
	for _, nr := range rep.Nodes {
		lat, ok := admitLats[nr.Node]
		if !ok {
			lat = -1 // straggler: never admitted this round
		}
		_, answered := responded[nr.Node]
		var disconnects, rejoins int
		if rp, ok := f.peers[nr.Node].(*remotePeer); ok {
			_, disconnects, rejoins = rp.churn()
		}
		st := ht.Record(health.Sample{
			Node:          nr.Node,
			Round:         rep.Round,
			AdmitSeconds:  lat,
			UploadFailed:  nr.UploadFailed,
			DeployFailed:  nr.DeployFailed,
			TimedOut:      nr.TimedOut,
			Disconnected:  nr.Disconnected,
			Disconnects:   disconnects,
			Rejoins:       rejoins,
			ModelVersion:  nr.ModelVersion,
			Accuracy:      nr.NodeAccuracy,
			AccuracyValid: answered,
		})
		if tr != nil {
			tr.Emit("fleet.health", telemetry.Attrs{
				"round": rep.Round, "node": nr.Node, "verdict": st.Verdict,
				"admit_p99_s": st.AdmitP99Seconds, "fail_rate": st.FailureRate,
				"drift": st.Drift, "drifting": st.Drifting,
				"version": st.ModelVersion, "disconnected": nr.Disconnected,
			})
		}
	}
}
