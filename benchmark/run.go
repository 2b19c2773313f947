package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"insitu/internal/fleet"
)

// runResult is one run of one workload, traced or not: what the result
// line carries plus what -out keeps for -compare and for reading.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Quick     bool              `json:"quick,omitempty"`
	Traced    bool              `json:"traced"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is how many measurements stand behind the medians.
	Samples map[string]int `json:"samples"`
	// ReportDigest is a SHA-256 of the JSON-encoded RoundReports, for
	// information only until reports are GOMAXPROCS-invariant.
	ReportDigest string `json:"report_digest"`
	// TraceValid is false when fleet.reconcile_ratio left 0.8–1.25.
	TraceValid *bool `json:"trace_valid,omitempty"`
	// Detail holds unbounded numbers worth reading beside the metrics:
	// the untraced run's uplink bytes per image, the two transport
	// medians and the replayed stage shares of the traced run.
	Detail map[string]float64 `json:"detail,omitempty"`
}

// session is one open fleet with its checker and (when traced) span
// recorder.
type session struct {
	w       workload
	f       *fleet.Fleet
	stop    func() error
	chk     *checker
	rec     *recorder // nil when untraced
	reports []fleet.RoundReport
}

// roundSample is one measured round and the checkpoint after it.
type roundSample struct {
	wall        float64 // RunRound wall-clock seconds
	rep         fleet.RoundReport
	ckptSeconds float64
	ckptBytes   int64
	heap        uint64 // HeapAlloc after a forced GC
}

// openSession sets a fleet up: construct (and connect), Bootstrap, one
// warm-up round. It returns the set-up wall-clock seconds.
func openSession(w workload, cfg fleet.Config, chk *checker, rec *recorder) (*session, float64, error) {
	start := time.Now()
	f, stop, err := openFleet(w, cfg)
	if err != nil {
		return nil, 0, err
	}
	s := &session{w: w, f: f, stop: stop, chk: chk, rec: rec}
	var boot fleet.RoundReport
	rec.timed("fleet.bootstrap", s.trace(), 0, func() { boot = f.Bootstrap(bootstrapImages) })
	s.record(0, boot)
	s.runRound()
	return s, time.Since(start).Seconds(), nil
}

func (s *session) trace() string { return fmt.Sprintf("%s/%d", s.w.Name, s.f.Round()) }

func (s *session) record(round int, rep fleet.RoundReport) {
	s.chk.round(round, rep)
	s.reports = append(s.reports, rep)
}

// runRound runs and checks one incremental round, timing only RunRound.
func (s *session) runRound() (fleet.RoundReport, float64) {
	round := s.f.Round()
	var rep fleet.RoundReport
	wall := s.rec.timed("fleet.round", s.trace(), 0, func() { rep = s.f.RunRound(s.w.Capture) })
	s.record(round, rep)
	return rep, wall
}

// measure runs one round and then, outside the round timer, checkpoints
// into ckpt (timed on its own), forces a GC and reads the live heap.
func (s *session) measure(ckpt io.Writer) roundSample {
	var smp roundSample
	smp.rep, smp.wall = s.runRound()
	cw := &countWriter{w: ckpt}
	var err error
	smp.ckptSeconds = s.rec.timed("fleet.checkpoint", s.trace(), 0, func() { err = s.f.Checkpoint(cw) })
	smp.ckptBytes = cw.n
	s.chk.checkpoint(cw.n, err)
	smp.heap = liveHeap()
	return smp
}

// close stops the fleet; a wire agent that did not end on Bye is a
// failed operation.
func (s *session) close() {
	if err := s.stop(); err != nil {
		s.chk.fail("close: %v", err)
	}
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// reportDigest hashes the JSON encoding of the reports.
func reportDigest(reports []fleet.RoundReport) string {
	h := sha256.New()
	// RoundReport holds only numbers, bools and slices of them, so the
	// encoder cannot fail.
	_ = json.NewEncoder(h).Encode(reports)
	return hex.EncodeToString(h.Sum(nil))
}

const mb = 1e6

// runUntraced is the run the end-to-end metrics come from: Replicas
// fleets one after another, each set up cold, warmed with one round and
// measured for Rounds rounds, with no telemetry and no spans.
func runUntraced(w workload, seed uint64) (runResult, error) {
	chk := &checker{w: w}
	var (
		setups, walls, accuracies, finalCkpt []float64
		reports                              []fleet.RoundReport
		captured                             int
		upBytes                              int64
		wallSum                              float64
		peakHeap                             uint64
	)
	for r := 0; r < w.Replicas; r++ {
		s, setup, err := openSession(w, w.config(seed, r), chk, nil)
		if err != nil {
			return runResult{}, err
		}
		setups = append(setups, setup)
		var last roundSample
		for k := 0; k < w.Rounds; k++ {
			last = s.measure(io.Discard)
			walls = append(walls, last.wall)
			wallSum += last.wall
			accuracies = append(accuracies, last.rep.MeanAccuracy)
			peakHeap = max(peakHeap, last.heap)
			for _, nr := range last.rep.Nodes {
				captured += nr.Captured
				upBytes += nr.UploadedBytes
			}
		}
		finalCkpt = append(finalCkpt, float64(last.ckptBytes))
		s.close()
		reports = append(reports, s.reports...)
	}
	accuracy := mean(accuracies)
	chk.accuracy(accuracy)
	return runResult{
		Workload: w.Name, Seed: seed,
		Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Problems: chk.problems,
		Metrics: metricSet(endToEnd, map[string]float64{
			"setup_s":      median(setups),
			"round_s_p50":  median(walls),
			"images_per_s": float64(captured) / wallSum,
			"accuracy":     accuracy,
			"live_heap_mb": float64(peakHeap) / mb,
			"ckpt_mb":      median(finalCkpt) / mb,
		}),
		Samples:      map[string]int{"setup_s": len(setups), "round_s_p50": len(walls), "ckpt_mb": len(finalCkpt)},
		ReportDigest: reportDigest(reports),
		Detail:       map[string]float64{"uplink_bytes_per_image": float64(upBytes) / float64(captured)},
	}, nil
}
