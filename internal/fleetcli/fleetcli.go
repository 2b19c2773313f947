// Package fleetcli is the driver behind cmd/insitu-fleet, for both of
// its deployments: in process, and (-listen) as the standalone wire
// server. Both parse the same flags, run the same bootstrap/round
// schedule, checkpoint on the same cadence and print byte-identical
// stdout for the same Config — the wire-smoke harness diffs the two
// outputs, so the only thing allowed to differ is how the fleet's peers
// come to exist (fleet.New vs fleet.Listen).
package fleetcli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"insitu/internal/ckpt"
	"insitu/internal/core"
	"insitu/internal/fleet"
	"insitu/internal/health"
	"insitu/internal/metrics"
	"insitu/internal/netsim"
	"insitu/internal/obs"
)

// Options is insitu-fleet's flag surface.
type Options struct {
	// Listen, when set, serves the wire fleet on this address: the N
	// nodes are insitu-node processes that connect to it. Empty runs
	// them in process.
	Listen          string
	Nodes           int
	Variant         string
	Bootstrap       int
	Rounds          string
	Seed            uint64
	Classes         int
	Severity        float64
	OutageNodes     string
	UplinkFaultRate float64
	MaxRoundSamples int
	MaxCalibSamples int
	Shards          int
	MaxLiveNodes    int
	SpillDir        string
	EvalSamples     int
	KillAfter       int
	RoundTimeout    time.Duration
	Lease           time.Duration
	MinQuorum       int
	DriftDrop       float64
	AdmitP99SLO     float64
	HealthOut       string
	Obs             obs.Flags
}

// AddFlags registers the fleet flags on fs.
func (o *Options) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Listen, "listen", "",
		"serve the wire fleet: accept insitu-node connections on this address (empty = run the nodes in process)")
	fs.IntVar(&o.Nodes, "nodes", 4, "fleet size N")
	fs.StringVar(&o.Variant, "variant", "d", "IoT system variant: a, b, c or d")
	fs.IntVar(&o.Bootstrap, "bootstrap", 64, "per-node bootstrap capture size")
	fs.StringVar(&o.Rounds, "rounds", "48,48", "comma-separated per-node capture counts per round")
	fs.Uint64Var(&o.Seed, "seed", 7, "simulation seed")
	fs.IntVar(&o.Classes, "classes", 5, "object classes in the synthetic world")
	fs.Float64Var(&o.Severity, "severity", 0.7, "in-situ condition severity [0,1]")
	fs.StringVar(&o.OutageNodes, "outage-nodes", "", "comma-separated node ids in permanent link blackout")
	fs.Float64Var(&o.UplinkFaultRate, "uplink-fault-rate", 0,
		"per-transfer probability an upload batch is lost (half corruption, half drops)")
	fs.IntVar(&o.MaxRoundSamples, "max-round-samples", 0, "per-round retrain admission cap in samples (0 = unlimited)")
	fs.IntVar(&o.MaxCalibSamples, "max-calib-samples", 0, "per-round pooled calibration cap in samples (0 = unlimited)")
	// The two ingestion valves interact: -shards bounds WHO can make
	// progress concurrently (S worker goroutines instead of N; a shard's
	// nodes execute serially) and -max-live-nodes how many node states
	// stay in memory, split across those shards — so it needs at most
	// that many shards. Turning either changes throughput and memory,
	// never results: reports are byte-identical for every combination.
	fs.IntVar(&o.Shards, "shards", 0,
		"in-process only: ingestion shards, each one worker owning N/S nodes (0 = one per node)")
	fs.IntVar(&o.MaxLiveNodes, "max-live-nodes", 0,
		"in-process only: node states kept hydrated; the LRU remainder spills to disk (0 = all resident; needs -shards between 1 and this)")
	fs.StringVar(&o.SpillDir, "spill-dir", "",
		"where cold node state spills under -max-live-nodes (default: a temp dir removed on exit)")
	fs.IntVar(&o.EvalSamples, "eval-samples", 0,
		"per-node post-deploy evaluation images per round (0 = the paper-faithful 120; scale runs shrink it)")
	fs.IntVar(&o.KillAfter, "kill-after-round", -1,
		"SIGKILL the process right after this round's checkpoint lands (crash-injection; needs -state-dir)")
	// The three stall valves interact: RoundTimeout abandons a CONNECTED
	// node that stops answering (its leftovers are discarded, reports may
	// differ run to run); the lease parks a node whose CONNECTION went
	// silent, deterministically, and keeps its session for rejoin;
	// MinQuorum is the floor under lease parking — below it the round
	// waits for rejoins instead of shrinking further.
	fs.DurationVar(&o.RoundTimeout, "round-timeout", -1,
		"abandon a round's stragglers after this long (-1 auto: 2m for the wire cloud without -state-dir, else 0 = wait forever)")
	fs.DurationVar(&o.Lease, "lease", 0,
		"wire only: park a node whose connection has been silent this long; it rejoins by redialing (0 = never)")
	fs.IntVar(&o.MinQuorum, "min-quorum", 0,
		"wire only: never lease-park below this many participating nodes in a round (0 = 1)")
	fs.Float64Var(&o.DriftDrop, "drift-drop", 0.15,
		"degrade a node whose EWMA accuracy falls this far below its deploy-time baseline (0 disables the drift monitor)")
	fs.Float64Var(&o.AdmitP99SLO, "admit-p99-slo", 0,
		"degrade a node whose windowed p99 admission latency exceeds this many seconds (0 disables)")
	fs.StringVar(&o.HealthOut, "health-out", "",
		"write the final fleet health status (the /fleetz document) to this JSON file")
	o.Obs.AddFlags(fs)
}

// ParseInts parses a comma-separated list of non-negative ints,
// exiting with a usage error on garbage.
func ParseInts(arg, what string) []int {
	var out []int
	if strings.TrimSpace(arg) == "" {
		return out
	}
	for _, part := range strings.Split(arg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			fmt.Fprintf(os.Stderr, "bad %s %q\n", what, part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

// Kind maps a variant letter to its system kind.
func Kind(variant string) (core.SystemKind, error) {
	switch variant {
	case "a":
		return core.SystemCloudAll, nil
	case "b":
		return core.SystemCloudDiagnosis, nil
	case "c":
		return core.SystemInSituDiagnosis, nil
	case "d":
		return core.SystemInSituAI, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want a, b, c or d)", variant)
}

// build turns the resolved Config into a live fleet: fleet.New in
// process, fleet.Listen for the wire cloud, which blocks until all N
// agents have handshaken. The wire fleet owns its listener for the whole
// run (Close stops it): it keeps accepting so killed and restarted nodes
// can redial and rejoin their session mid-schedule.
func (o *Options) build(cfg fleet.Config) (*fleet.Fleet, error) {
	if o.Listen == "" {
		return fleet.New(cfg), nil
	}
	ln, err := net.Listen("tcp", o.Listen)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "listening on %s, waiting for %d node(s)...\n", ln.Addr(), cfg.Nodes)
	f, err := fleet.Listen(cfg, ln)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "all %d node(s) connected\n", cfg.Nodes)
	return f, nil
}

// Run drives one fleet deployment end to end and returns the process
// exit code. Resume (when requested) restores into whichever fleet the
// flags build, so a checkpoint taken by either deployment finishes under
// the other.
func (o *Options) Run() int {
	const name = "insitu-fleet"
	kind, err := Kind(o.Variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rounds := ParseInts(o.Rounds, "round size")
	if o.Listen == "" {
		// The wire fleet's workers are processes: it ignores both flags.
		topo := fleet.Config{Nodes: o.Nodes, Shards: o.Shards, MaxLiveNodes: o.MaxLiveNodes}
		if _, err := topo.ShardCount(); err != nil {
			fmt.Fprintln(os.Stderr, name+":", err)
			return 2
		}
	}

	downFaults, err := o.Obs.Faults(o.Seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		return 2
	}

	hslo := health.SLO{AdmitP99Seconds: o.AdmitP99SLO}
	if o.DriftDrop <= 0 {
		hslo.DriftDisabled = true
	} else {
		hslo.DriftDrop = o.DriftDrop
	}
	tracker := health.NewTracker(hslo)

	session, err := obs.Start(o.Obs, tracker.Routes()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		return 1
	}
	tracker.AttachTelemetry(session.Registry)

	cfg := fleet.DefaultConfig(kind, o.Nodes, o.Seed)
	cfg.Classes = o.Classes
	cfg.Severity = o.Severity
	cfg.DownlinkFaults = downFaults
	cfg.UplinkFaults = netsim.FaultConfig{
		CorruptProb: o.UplinkFaultRate / 2,
		DropProb:    o.UplinkFaultRate / 2,
	}
	cfg.OutageNodes = ParseInts(o.OutageNodes, "outage node id")
	cfg.MaxRoundSamples = o.MaxRoundSamples
	cfg.MaxCalibSamples = o.MaxCalibSamples
	cfg.Shards = o.Shards
	cfg.MaxLiveNodes = o.MaxLiveNodes
	cfg.SpillDir = o.SpillDir
	cfg.EvalSamples = o.EvalSamples
	cfg.Trace = session.Tracer
	cfg.Health = tracker

	store, err := o.Obs.OpenStore()
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		return 1
	}
	if o.KillAfter >= 0 && store == nil {
		fmt.Fprintln(os.Stderr, name+": -kill-after-round requires -state-dir")
		return 2
	}

	// Resolve -round-timeout: auto (-1) picks a positive default only for
	// the wire cloud running without a checkpoint store — a wedged remote
	// node must not hold collect forever, but checkpoints require a fully
	// quiesced fleet (an abandoned straggler could still be running).
	rt := o.RoundTimeout
	if rt < 0 {
		rt = 0
		if o.Listen != "" && store == nil {
			rt = 2 * time.Minute
		}
	}
	if rt > 0 && store != nil {
		fmt.Fprintln(os.Stderr, name+": -round-timeout must be 0 with -state-dir (checkpoints need a quiesced fleet); use -lease for churn")
		return 2
	}
	cfg.RoundTimeout = rt
	cfg.Lease = o.Lease
	cfg.MinQuorum = o.MinQuorum

	fl, err := o.build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		return 1
	}
	defer fl.Close()

	// Fresh start, or resume from the latest good snapshot: the
	// round-synchronous fleet is deterministic, so a resumed run's
	// report history byte-matches an uninterrupted one's — whichever
	// transport took the snapshot and whichever finishes it.
	var ckp *fleet.Checkpointer
	if o.Obs.Resume && store != nil {
		c, rerr := fleet.ResumeCheckpointerWith(store, fl, o.Obs.CkptEvery)
		switch {
		case rerr == nil:
			ckp = c
			fmt.Fprintf(os.Stderr, "resumed from %s at round %d\n", store.Dir(), fl.Round()-1)
		case errors.Is(rerr, ckpt.ErrNoSnapshot):
			fmt.Fprintln(os.Stderr, "no snapshot to resume from; starting fresh")
		default:
			fmt.Fprintln(os.Stderr, name+":", rerr)
			return 1
		}
	}
	if ckp == nil && store != nil {
		ckp = fleet.NewCheckpointer(store, fl, o.Obs.CkptEvery)
	}
	if ckp != nil && session.Registry != nil {
		// Snapshots carry the registry (histogram buckets included) so
		// quantile state survives a crash; on resume the stored snapshot
		// lands back in the live registry here.
		ckp.AttachRegistry(session.Registry)
	}

	t := metrics.NewTable(
		fmt.Sprintf("In-situ AI fleet simulation — %d nodes, variant %s (%v)", o.Nodes, o.Variant, kind),
		"round", "uploaded", "admitted", "trained", "cloud (s)",
		"cloud/node (s)", "mean acc", "model", "failures")
	add := func(r fleet.RoundReport) {
		failures := 0
		for _, nr := range r.Nodes {
			if nr.UploadFailed || nr.DeployFailed || nr.TimedOut || nr.Disconnected {
				failures++
			}
		}
		t.AddRow(fmt.Sprintf("%d", r.Round),
			fmt.Sprintf("%d", r.Uploaded),
			fmt.Sprintf("%d", r.Admitted),
			fmt.Sprintf("%d", r.Trained),
			fmt.Sprintf("%.2f", r.CloudCost.Seconds),
			fmt.Sprintf("%.2f", r.PerNodeCloudCost.Seconds),
			fmt.Sprintf("%.3f", r.MeanAccuracy),
			fmt.Sprintf("v%d", r.CloudVersion),
			fmt.Sprintf("%d/%d", failures, len(r.Nodes)))
	}

	// captured counts only the rounds this process ran: WallSeconds does
	// not cover a resumed run's pre-crash rounds either.
	captured := 0
	record := func(r fleet.RoundReport) int {
		add(r)
		for _, nr := range r.Nodes {
			captured += nr.Captured
		}
		if ckp != nil {
			if err := ckp.OnRound(r); err != nil {
				fmt.Fprintln(os.Stderr, name+": checkpoint:", err)
				return 1
			}
		}
		if o.KillAfter >= 0 && r.Round == o.KillAfter {
			// Crash injection: die the hard way, no cleanup, no flush —
			// exactly what the checkpoint discipline must survive.
			fmt.Fprintf(os.Stderr, "crash injection: SIGKILL after round %d\n", r.Round)
			proc, _ := os.FindProcess(os.Getpid())
			_ = proc.Kill()
			select {}
		}
		return 0
	}

	// A resumed run re-prints the completed rounds from the snapshot's
	// history, then continues with the remaining schedule.
	done := 0
	var last fleet.RoundReport
	if ckp != nil {
		for _, r := range ckp.History() {
			add(r)
			last = r
		}
		done = len(ckp.History())
	}
	if done == 0 {
		fmt.Fprintf(os.Stderr, "bootstrapping %d nodes (%d images each)...\n", o.Nodes, o.Bootstrap)
		last = fl.Bootstrap(o.Bootstrap)
		if code := record(last); code != 0 {
			return code
		}
		done = 1
	}
	for i := done - 1; i < len(rounds); i++ {
		n := rounds[i]
		fmt.Fprintf(os.Stderr, "round %d (%d images per node)...\n", i+1, n)
		last = fl.RunRound(n)
		if code := record(last); code != 0 {
			return code
		}
	}
	if ckp != nil && len(ckp.History())%ckp.Every != 0 {
		if err := ckp.Save(); err != nil {
			fmt.Fprintln(os.Stderr, name+": checkpoint:", err)
			return 1
		}
	}
	fmt.Println(t.String())

	// Final per-node view of the last round.
	nt := metrics.NewTable("per-node outcome (final round)",
		"node", "captured", "uploaded", "upload frac", "uplink (J)",
		"accuracy", "model", "status")
	for _, nr := range last.Nodes {
		status := fmt.Sprintf("ok(%d)", nr.DeployAttempts)
		switch {
		case nr.Disconnected:
			status = "DISCONNECTED"
		case nr.TimedOut:
			status = "TIMED OUT"
		case nr.DeployFailed:
			status = fmt.Sprintf("DEPLOY FAILED(%d)", nr.DeployAttempts)
		case nr.UploadFailed:
			status = "upload lost"
		}
		if nr.StaleModel {
			status += " stale"
		}
		nt.AddRow(fmt.Sprintf("%d", nr.Node),
			fmt.Sprintf("%d", nr.Captured),
			fmt.Sprintf("%d", nr.Uploaded),
			fmt.Sprintf("%.2f", nr.UploadFrac),
			fmt.Sprintf("%.3f", nr.UplinkJoules),
			fmt.Sprintf("%.3f", nr.NodeAccuracy),
			fmt.Sprintf("v%d", nr.ModelVersion),
			status)
	}
	fmt.Println(nt.String())

	// Stderr, not stdout: wall-clock varies run to run, and stdout is
	// byte-compared between crashed-and-resumed and uninterrupted runs
	// (and between the in-process and wire binaries).
	if wall := fl.WallSeconds(); wall > 0 && captured > 0 {
		fmt.Fprintf(os.Stderr, "aggregate throughput: %d images in %.2fs wall = %.1f imgs/s across %d nodes\n",
			captured, wall, float64(captured)/wall, o.Nodes)
	}

	// Health summary: stderr one-liner always (wall-clock-derived, so
	// never stdout), full document to -health-out for insitu-top -once.
	hs := tracker.Snapshot()
	fmt.Fprintf(os.Stderr, "fleet health: %s (%d healthy / %d degraded / %d unhealthy / %d unknown)\n",
		hs.Status(), hs.Healthy, hs.Degraded, hs.Unhealthy, hs.Unknown)
	if o.HealthOut != "" {
		buf, err := json.MarshalIndent(hs, "", "  ")
		if err == nil {
			err = os.WriteFile(o.HealthOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, name+": writing -health-out:", err)
			return 1
		}
	}

	if err := session.Close(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		return 1
	}
	return 0
}
