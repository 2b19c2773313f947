// Command insitu-node simulates one deep-learning IoT deployment through
// its incremental-update lifetime and prints a per-stage report:
//
//	insitu-node -variant d -bootstrap 100 -stages 200,400,800
//
// Variants follow the paper's Fig. 24: a (cloud-all), b
// (cloud-diagnosis), c (in-situ diagnosis), d (In-situ AI).
//
// Observability: -telemetry prints a Prometheus-style counter dump on
// exit, -trace-out FILE records stage/upload/deploy/planner events as
// JSONL (validate with insitu-tracecheck), and -pprof-addr serves
// pprof/expvar/metrics over HTTP while the simulation runs.
//
// Fault injection: -fault-rate 0.4 corrupts/drops 40% of Cloud→node
// deploy deliveries and -outage 1:3 blacks out a transfer window; the
// node retries with backoff, rolls back failed applies and keeps serving
// its previous model when a deployment never lands.
//
// Durability: -state-dir DIR writes a crash-safe snapshot (system state
// plus report history) after every -ckpt-every stages; -resume restarts
// from the latest good snapshot and finishes with output byte-identical
// to an uninterrupted run. -kill-after-stage N SIGKILLs the process
// right after stage N checkpoints — the deterministic crash used by
// `make crash-smoke`.
//
// Agent mode: -connect ADDR abandons the standalone simulation and
// instead serves as one node of a wire-protocol fleet (see
// insitu-fleet -listen). The cloud pushes the node's whole configuration in
// the Welcome handshake, so the simulation flags above are ignored:
//
//	insitu-node -connect 127.0.0.1:9433 -node-id 0
//
// The agent survives the wire: when the connection dies it redials with
// jittered backoff for up to -reconnect-window and resumes the session
// the cloud kept for its node id.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"insitu/internal/ckpt"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/fleet"
	"insitu/internal/gpusim"
	"insitu/internal/metrics"
	"insitu/internal/models"
	"insitu/internal/node"
	"insitu/internal/obs"
	"insitu/internal/planner"
)

// runAgent serves the wire protocol under fleet.ServeLoop supervision:
// dial (retrying while the cloud comes up), serve, and on disconnect
// redial with jittered backoff to rejoin the session the cloud kept for
// this node id — until a clean Bye, a superseding process, or the
// reconnect window runs out.
func runAgent(addr string, nodeID int, window time.Duration) int {
	err := fleet.ServeLoop(fleet.AgentConfig{
		Addr:            addr,
		NodeID:          nodeID,
		ReconnectWindow: window,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "insitu-node: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "insitu-node:", err)
		return 1
	}
	return 0
}

func main() {
	connect := flag.String("connect", "",
		"cloud address to serve as a wire-protocol fleet node (agent mode; simulation flags are ignored)")
	nodeID := flag.Int("node-id", -1, "requested fleet node id in -connect mode (-1 = cloud assigns)")
	reconnectWindow := flag.Duration("reconnect-window", time.Minute,
		"in -connect mode, keep redialing this long after losing the cloud before giving up (0 = exit with the first session)")
	variant := flag.String("variant", "d", "IoT system variant: a, b, c or d")
	bootstrap := flag.Int("bootstrap", 100, "bootstrap capture size")
	stagesArg := flag.String("stages", "200,400,800", "comma-separated per-stage capture counts")
	seed := flag.Uint64("seed", 7, "simulation seed")
	classes := flag.Int("classes", 5, "object classes in the synthetic world")
	severity := flag.Float64("severity", 0.7, "in-situ condition severity [0,1]")
	latencyReq := flag.Float64("latency-req", 0.2, "per-frame latency requirement (s) for the serving plan")
	killAfter := flag.Int("kill-after-stage", -1,
		"SIGKILL the process right after this stage's checkpoint lands (crash-injection; needs -state-dir)")
	var obsFlags obs.Flags
	obsFlags.AddFlags(flag.CommandLine)
	flag.Parse()

	if *connect != "" {
		os.Exit(runAgent(*connect, *nodeID, *reconnectWindow))
	}

	var kind core.SystemKind
	switch *variant {
	case "a":
		kind = core.SystemCloudAll
	case "b":
		kind = core.SystemCloudDiagnosis
	case "c":
		kind = core.SystemInSituDiagnosis
	case "d":
		kind = core.SystemInSituAI
	default:
		fmt.Fprintf(os.Stderr, "unknown variant %q (want a, b, c or d)\n", *variant)
		os.Exit(2)
	}

	var stages []int
	for _, part := range strings.Split(*stagesArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad stage size %q\n", part)
			os.Exit(2)
		}
		stages = append(stages, n)
	}

	faults, err := obsFlags.Faults(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "insitu-node:", err)
		os.Exit(2)
	}

	session, err := obs.Start(obsFlags)
	if err != nil {
		fmt.Fprintln(os.Stderr, "insitu-node:", err)
		os.Exit(1)
	}

	cfg := core.DefaultConfig(kind, *seed)
	cfg.Classes = *classes
	cfg.Severity = *severity
	cfg.Faults = faults
	cfg.Trace = session.Tracer

	store, err := obsFlags.OpenStore()
	if err != nil {
		fmt.Fprintln(os.Stderr, "insitu-node:", err)
		os.Exit(1)
	}
	if *killAfter >= 0 && store == nil {
		fmt.Fprintln(os.Stderr, "insitu-node: -kill-after-stage requires -state-dir")
		os.Exit(2)
	}

	// Fresh start, or resume from the latest good snapshot. The resumed
	// system continues the deterministic simulation exactly where the
	// snapshot left it, so the final output matches an uninterrupted run.
	var sys *core.System
	var ckp *node.Checkpointer
	if obsFlags.Resume {
		c, rerr := node.ResumeCheckpointer(store, cfg, obsFlags.CkptEvery)
		switch {
		case rerr == nil:
			ckp = c
			sys = c.System()
			fmt.Fprintf(os.Stderr, "resumed from %s at stage %d\n", store.Dir(), sys.Stage()-1)
		case errors.Is(rerr, ckpt.ErrNoSnapshot):
			fmt.Fprintln(os.Stderr, "no snapshot to resume from; starting fresh")
		default:
			fmt.Fprintln(os.Stderr, "insitu-node:", rerr)
			os.Exit(1)
		}
	}
	if sys == nil {
		sys = core.NewSystem(cfg)
		if store != nil {
			ckp = node.NewCheckpointer(store, sys, obsFlags.CkptEvery)
		}
	}

	// Serving-configuration planning: after every deployment the node
	// re-plans its inference/diagnosis batches for the paper-scale model
	// on the TX1-class GPU (planner.plan trace events, Fig. 21 live).
	sim := gpusim.New(device.TX1())
	inferSpec := models.AlexNet()
	diagSpec := models.DiagnosisSpec(inferSpec, 100)
	replan := func() {
		planner.PlanSingleRunning(sim, inferSpec, diagSpec, *latencyReq, 256)
	}

	t := metrics.NewTable(
		fmt.Sprintf("In-situ AI node simulation — variant %s (%v)", *variant, kind),
		"stage", "captured", "uploaded", "upload frac", "trained",
		"uplink (J)", "cloud update (s)", "accuracy", "model", "deploy")
	add := func(r core.StageReport) {
		deployed := fmt.Sprintf("ok(%d)", r.DeployAttempts)
		if r.DeployFailed {
			deployed = fmt.Sprintf("FAILED(%d)", r.DeployAttempts)
		}
		if r.StaleModel {
			deployed += " stale"
		}
		t.AddRow(fmt.Sprintf("%d", r.Stage),
			fmt.Sprintf("%d", r.Captured),
			fmt.Sprintf("%d", r.Uploaded),
			fmt.Sprintf("%.2f", r.UploadFrac),
			fmt.Sprintf("%d", r.Trained),
			fmt.Sprintf("%.3f", r.UplinkJoules),
			fmt.Sprintf("%.2f", r.CloudCost.Seconds),
			fmt.Sprintf("%.3f", r.NodeAccuracy),
			fmt.Sprintf("v%d", r.ModelVersion),
			deployed)
	}

	record := func(r core.StageReport) {
		add(r)
		if ckp != nil {
			if err := ckp.OnStage(r); err != nil {
				fmt.Fprintln(os.Stderr, "insitu-node: checkpoint:", err)
				os.Exit(1)
			}
		}
		if *killAfter >= 0 && r.Stage == *killAfter {
			// Crash injection: die the hard way, no cleanup, no flush —
			// exactly what the checkpoint discipline must survive.
			fmt.Fprintf(os.Stderr, "crash injection: SIGKILL after stage %d\n", r.Stage)
			proc, _ := os.FindProcess(os.Getpid())
			_ = proc.Kill()
			select {}
		}
	}

	// A resumed run re-prints the completed stages from the snapshot's
	// report history, then continues with the remaining schedule.
	done := 0
	if ckp != nil {
		for _, r := range ckp.History() {
			add(r)
		}
		done = len(ckp.History())
	}
	if done == 0 {
		fmt.Fprintln(os.Stderr, "bootstrapping...")
		record(sys.Bootstrap(*bootstrap))
		replan()
		done = 1
	}
	for i := done - 1; i < len(stages); i++ {
		n := stages[i]
		fmt.Fprintf(os.Stderr, "stage %d (%d images)...\n", i+1, n)
		record(sys.RunStage(n))
		replan()
	}
	// Seal the final state when the cadence left the last stages
	// unsnapshotted.
	if ckp != nil && len(ckp.History())%ckp.Every != 0 {
		if err := ckp.Save(); err != nil {
			fmt.Fprintln(os.Stderr, "insitu-node: checkpoint:", err)
			os.Exit(1)
		}
	}
	fmt.Println(t.String())
	m := sys.Meter()
	fmt.Printf("uplink total: %d images, %.2f MB, %.3f J over %s\n",
		m.Items, float64(m.Bytes)/1e6, m.Joules, m.Link.Name)
	if link := sys.Downlink(); link != nil {
		fmt.Printf("downlink faults: %d transfers, %d corrupted, %d dropped, %d outage drops; %d retransmits (%.2f MB, %.3f J)\n",
			link.Stats.Transfers, link.Stats.Corrupted, link.Stats.Dropped, link.Stats.OutageDrops,
			m.Retransmits, float64(m.RetransmitBytes)/1e6, m.RetransmitJoules)
	}
	if err := session.Close(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "insitu-node:", err)
		os.Exit(1)
	}
}
