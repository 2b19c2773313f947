// Package node is an event-driven runtime simulation of one In-situ AI
// edge node operating in the paper's Single-running mode (§IV-B1): the
// inference task serves sensor frames during the day window under a
// latency requirement, and the diagnosis task drains the day's backlog
// at night on the same mobile GPU. It turns the planner's static batch
// choices into dynamic behaviour — queueing, deadline-aware dispatch,
// backlog draining — and accounts busy/idle energy, which is how the
// paper's "energy-efficiency under a time constraint" objective actually
// plays out on a live node.
package node

import (
	"fmt"

	"insitu/internal/gpusim"
	"insitu/internal/models"
	"insitu/internal/planner"
	"insitu/internal/telemetry"
)

// Config parameterizes one simulated day/night cycle.
type Config struct {
	Sim       *gpusim.Sim
	Inference models.NetSpec
	Diagnosis models.NetSpec
	// FrameRate is sensor frames/s arriving during the day window.
	FrameRate float64
	// LatencyReq is the per-frame response deadline in seconds.
	LatencyReq float64
	// InferenceBatch overrides the time-model pick when > 0.
	InferenceBatch int
	// DiagnosisBatch overrides the resource-model pick when > 0.
	DiagnosisBatch int
	// DaySeconds and NightSeconds bound the two windows.
	DaySeconds   float64
	NightSeconds float64
	// Trace, when non-nil, receives node.dispatch / node.day / node.night
	// events; the "t" attribute is simulated seconds into the cycle.
	Trace *telemetry.Tracer
}

// Report summarizes the simulated cycle.
type Report struct {
	// Day: inference service.
	Frames          int
	Batches         int
	DeadlineMisses  int
	AvgLatency      float64
	MaxLatency      float64
	InferenceBusy   float64
	InferenceBatchN int
	// Night: diagnosis service.
	DiagnosedFrames int
	DiagnosisBusy   float64
	DiagnosisBatchN int
	Backlog         int
	// Energy over the full day+night cycle.
	EnergyJ float64
}

// ArrivalAwareBatch returns the largest batch whose fill time plus batch
// latency fits the requirement: max B with B/rate + latency(B) ≤ req.
// Returns at least 1.
func ArrivalAwareBatch(sim *gpusim.Sim, spec models.NetSpec, rate, latencyReq float64) int {
	best := 1
	for b := 1; b <= 256; b++ {
		if float64(b)/rate+sim.NetTime(spec, b).Latency() <= latencyReq {
			best = b
		}
	}
	return best
}

// DiagnosisTime returns the batch latency of the 9-patch diagnosis task:
// the shared CONV stack runs once per patch plus the FCN head.
func DiagnosisTime(sim *gpusim.Sim, diag models.NetSpec, batch int) float64 {
	res := sim.NetTime(diag, batch)
	return 9*res.ConvTime + res.FCNTime
}

// Run simulates one day/night cycle.
func Run(cfg Config) Report {
	if cfg.Sim == nil || cfg.FrameRate <= 0 || cfg.LatencyReq <= 0 ||
		cfg.DaySeconds <= 0 || cfg.NightSeconds <= 0 {
		panic(fmt.Sprintf("node: invalid config %+v", cfg))
	}
	rep := Report{}

	// Configuration: the planner's picks unless overridden. The static
	// time model maximizes the batch under the latency requirement alone;
	// on a live node the frames must also *accumulate* within the budget,
	// so the batch is additionally bounded by
	// B/rate + latency(B) ≤ requirement (queueing-aware refinement).
	batch := cfg.InferenceBatch
	if batch <= 0 {
		batch = ArrivalAwareBatch(cfg.Sim, cfg.Inference, cfg.FrameRate, cfg.LatencyReq)
		if cap, ok := planner.OptimalInferenceBatch(cfg.Sim, cfg.Inference, cfg.LatencyReq, 256); ok && batch > cap {
			batch = cap
		}
	}
	rep.InferenceBatchN = batch
	diagBatch := cfg.DiagnosisBatch
	if diagBatch <= 0 {
		diagBatch = cfg.Sim.MaxBatchForMemory(cfg.Diagnosis, 256)
		if diagBatch < 1 {
			diagBatch = 1
		}
		// Diagnosis batches beyond a few hundred bring nothing; cap to
		// keep night batches granular.
		if diagBatch > 256 {
			diagBatch = 256
		}
	}
	rep.DiagnosisBatchN = diagBatch

	frames := int(cfg.FrameRate * cfg.DaySeconds)
	rep.Frames = frames
	if s := stats.Load(); s != nil {
		s.frames.Add(int64(frames))
	}
	interArrival := 1 / cfg.FrameRate

	// Day: deadline-aware batching. A batch dispatches when it is full,
	// or when waiting for the next arrival would push the oldest queued
	// frame past its deadline.
	var (
		queue    []float64 // arrival times of queued frames
		gpuFree  float64
		totalLat float64
	)
	dispatch := func(now float64) {
		if len(queue) == 0 {
			return
		}
		n := len(queue)
		start := now
		if gpuFree > start {
			start = gpuFree
		}
		lat := cfg.Sim.NetTime(cfg.Inference, n).Latency()
		done := start + lat
		gpuFree = done
		rep.Batches++
		rep.InferenceBusy += lat
		missesBefore := rep.DeadlineMisses
		for _, arr := range queue {
			l := done - arr
			totalLat += l
			if l > rep.MaxLatency {
				rep.MaxLatency = l
			}
			if l > cfg.LatencyReq+1e-9 {
				rep.DeadlineMisses++
			}
		}
		if s := stats.Load(); s != nil {
			s.batches.Add(1)
			s.misses.Add(int64(rep.DeadlineMisses - missesBefore))
			s.batchFrames.Observe(float64(n))
		}
		cfg.Trace.Emit("node.dispatch", telemetry.Attrs{
			"t": start, "frames": n, "latency_s": lat,
			"misses": rep.DeadlineMisses - missesBefore,
		})
		queue = queue[:0]
	}
	batchLat := cfg.Sim.NetTime(cfg.Inference, batch).Latency()
	for i := 0; i < frames; i++ {
		arrival := float64(i) * interArrival
		// Before accepting this arrival, dispatch if the oldest queued
		// frame cannot wait until this arrival.
		if len(queue) > 0 {
			oldest := queue[0]
			mustStart := oldest + cfg.LatencyReq - batchLat
			if arrival > mustStart {
				at := mustStart
				if at < queue[len(queue)-1] {
					at = queue[len(queue)-1]
				}
				dispatch(at)
			}
		}
		queue = append(queue, arrival)
		if len(queue) >= batch {
			dispatch(arrival)
		}
	}
	// End of day: nothing more arrives, so flush at the last arrival —
	// waiting longer only adds latency.
	if len(queue) > 0 {
		dispatch(queue[len(queue)-1])
	}
	if frames > 0 {
		rep.AvgLatency = totalLat / float64(frames)
	}
	cfg.Trace.Emit("node.day", telemetry.Attrs{
		"frames": frames, "batches": rep.Batches, "misses": rep.DeadlineMisses,
		"avg_latency_s": rep.AvgLatency, "max_latency_s": rep.MaxLatency,
		"busy_s": rep.InferenceBusy, "batch": batch,
	})

	// Night: drain the diagnosis backlog (every day frame awaits
	// diagnosis) within the night window.
	backlog := frames
	var nightUsed float64
	for backlog > 0 {
		n := diagBatch
		if n > backlog {
			n = backlog
		}
		dt := DiagnosisTime(cfg.Sim, cfg.Diagnosis, n)
		if nightUsed+dt > cfg.NightSeconds {
			// The full batch overruns the night window: shrink the final
			// batch to the largest size that still fits, instead of
			// stranding frames a smaller tail batch could drain.
			for n > 1 && nightUsed+dt > cfg.NightSeconds {
				n--
				dt = DiagnosisTime(cfg.Sim, cfg.Diagnosis, n)
			}
			if nightUsed+dt > cfg.NightSeconds {
				break
			}
		}
		nightUsed += dt
		backlog -= n
		rep.DiagnosedFrames += n
	}
	rep.DiagnosisBusy = nightUsed
	rep.Backlog = backlog
	if s := stats.Load(); s != nil {
		s.diagnosed.Add(int64(rep.DiagnosedFrames))
		s.backlog.Set(float64(backlog))
	}
	cfg.Trace.Emit("node.night", telemetry.Attrs{
		"diagnosed": rep.DiagnosedFrames, "backlog": backlog,
		"busy_s": nightUsed, "batch": diagBatch,
	})

	// Energy: busy at active power, the rest of the cycle at idle power.
	busy := rep.InferenceBusy + rep.DiagnosisBusy
	total := cfg.DaySeconds + cfg.NightSeconds
	idle := total - busy
	if idle < 0 {
		idle = 0
	}
	rep.EnergyJ = busy*cfg.Sim.Spec.PowerW + idle*cfg.Sim.Spec.IdlePowerW
	return rep
}
