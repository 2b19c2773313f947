package main

import (
	"fmt"
	"net"
	"sync"

	"insitu/internal/core"
	"insitu/internal/fleet"
)

// bootstrapImages is what every node uploads raw in round 0.
const bootstrapImages = 16

// defaultSeconds is BENCHMARK.json's run_seconds: the measuring time the
// round counts below were sized for with GOMAXPROCS=1 on the sizing
// host. -seconds scales the counts in proportion, so the work of a run
// is a function of its flags alone and the deterministic metrics stay
// comparable.
const defaultSeconds = 12

// workload is one closed-loop fleet configuration. Every workload has
// one driver goroutine (the fleet is round-synchronous) and at most two
// workers: Shards=2 in process, two TCP connections on the wire.
type workload struct {
	Name string
	Why  string
	// Nodes, Capture, EvalSamples and Cap (MaxRoundSamples and
	// MaxCalibSamples; 0 = uncapped) go into fleet.Config.
	Nodes       int
	Capture     int
	EvalSamples int
	Cap         int
	// Wire runs the fleet through fleet.Listen on loopback TCP with one
	// fleet.RunAgent goroutine per node.
	Wire bool
	// Replicas is how many independent fleets (sub-seeds of -seed) one
	// run sets up and measures; Rounds is the measured rounds of each at
	// defaultSeconds. Several replicas give setup_s a median and average
	// the seed's luck out of accuracy and checkpoint size.
	Replicas int
	Rounds   int
	// AccuracyFloor fails the run when mean accuracy falls below it.
	AccuracyFloor float64
}

// accuracyFloor is far enough under the baseline (medians 0.86–0.87,
// lowest of forty runs 0.79) that no seed trips it — a measured round's
// accuracy has a standard deviation near 0.07 between seeds — and far
// enough over chance (0.2) that a model that stopped learning does.
const accuracyFloor = 0.60

var workloads = []workload{
	{
		Name:  "node-bound",
		Why:   "18 nodes diagnose 48 and evaluate 120 images each against a 64-sample capped retrain: diagnosis and batch-1/3 nn forward are about 60 % of the round",
		Nodes: 18, Capture: 48, EvalSamples: 0, Cap: 64,
		Replicas: 3, Rounds: 1, AccuracyFloor: accuracyFloor,
	},
	{
		Name:  "cloud-bound",
		Why:   "2 nodes feed an uncapped retrain whose 40-step floors dominate: jigsaw and fine-tune training steps, nn backward, large GEMMs; a node-side change predicts no move",
		Nodes: 2, Capture: 64, EvalSamples: 24, Cap: 0,
		Replicas: 3, Rounds: 2, AccuracyFloor: accuracyFloor,
	},
	{
		Name:  "many-nodes",
		Why:   "128 nodes capture 2 images each: per-node fixed costs and per-node resident and checkpointed state dominate; the kernels predict no move",
		Nodes: 128, Capture: 2, EvalSamples: 2, Cap: 64,
		Replicas: 3, Rounds: 1, AccuracyFloor: accuracyFloor,
	},
	{
		Name:  "wire-2node",
		Why:   "cloud-bound's config through loopback TCP agents: frame codec, retransmit timers and per-round session saves; its distance from cloud-bound is the transport's cost",
		Nodes: 2, Capture: 64, EvalSamples: 24, Cap: 0, Wire: true,
		Replicas: 3, Rounds: 2, AccuracyFloor: accuracyFloor,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick cuts fleet sizes and round counts about 8× so a pass over all
// four workloads is a smoke test, not a measurement.
func (w workload) quick() workload {
	w.Nodes = max(2, w.Nodes/8)
	w.Replicas, w.Rounds = 1, 1
	w.AccuracyFloor = 0.3 // one round after bootstrap only has to beat chance (0.2)
	return w
}

// scaled sizes the measured rounds for a -seconds other than the default.
func (w workload) scaled(seconds int) workload {
	w.Rounds = max(1, w.Rounds*seconds/defaultSeconds)
	return w
}

// config builds the fleet configuration of one replica. Only fields no
// roadmap item lists for deletion are set.
func (w workload) config(seed uint64, replica int) fleet.Config {
	// Replica seeds sit far apart: the fleet derives its streams from
	// small offsets of Config.Seed.
	cfg := fleet.DefaultConfig(core.SystemInSituAI, w.Nodes, seed+uint64(replica)<<32)
	cfg.Classes, cfg.PermClasses, cfg.Shards = 5, 8, 2
	cfg.EvalSamples = w.EvalSamples
	cfg.MaxRoundSamples, cfg.MaxCalibSamples = w.Cap, w.Cap
	return cfg
}

// calibImages is the metered calibration sample a node adds to every
// incremental round's capture (fleetNode.capture's rule).
func (w workload) calibImages() int { return max(12, w.Capture/10) }

// openFleet constructs the fleet (and, on the wire, listens, dials and
// completes every handshake). The returned close function stops it and,
// for wire fleets, waits for every agent and reports the first one that
// did not end on a clean Bye.
func openFleet(w workload, cfg fleet.Config) (*fleet.Fleet, func() error, error) {
	if !w.Wire {
		f := fleet.New(cfg)
		return f, func() error { f.Close(); return nil }, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	var wg sync.WaitGroup
	agentErrs := make([]error, cfg.Nodes)
	for id := 0; id < cfg.Nodes; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				agentErrs[id] = err
				return
			}
			defer conn.Close()
			agentErrs[id] = fleet.RunAgent(conn, id)
		}(id)
	}
	f, err := fleet.Listen(cfg, ln)
	if err != nil {
		wg.Wait() // Listen closed the listener and connections, so the agents return
		return nil, nil, fmt.Errorf("fleet.Listen: %w", err)
	}
	return f, func() error {
		f.Close() // says Bye to every agent and closes the listener
		wg.Wait()
		for id, err := range agentErrs {
			if err != nil {
				return fmt.Errorf("agent %d: %w", id, err)
			}
		}
		return nil
	}, nil
}
