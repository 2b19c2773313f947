// Package obs wires the telemetry subsystem into the CLIs: one call
// builds a registry, enables instrumentation in every instrumented
// package (tensor kernels, nn layers, node runtime, planner, fleet),
// opens the JSONL trace sink, and optionally serves
// pprof/expvar/metrics over HTTP. The commands (insitu-bench,
// insitu-fleet, insitu-train) share the same -telemetry / -trace-out /
// -pprof-addr flags through this package, plus the durability flags
// (-state-dir / -resume / -ckpt-every) backing crash-safe checkpointing.
package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"insitu/internal/ckpt"
	"insitu/internal/fleet"
	"insitu/internal/netsim"
	"insitu/internal/nn"
	"insitu/internal/node"
	"insitu/internal/planner"
	"insitu/internal/telemetry"
	"insitu/internal/tensor"
)

// Flags holds the shared observability and fault-injection flag values;
// register them with AddFlags before flag.Parse.
type Flags struct {
	Telemetry bool
	TraceOut  string
	PprofAddr string
	// FaultRate is the per-transfer fault probability on the Cloud→node
	// downlink, split evenly between corruption and drops.
	FaultRate float64
	// Outage is a "START:END" transfer-sequence window during which every
	// downlink delivery is lost.
	Outage string
	// StateDir is the crash-safe checkpoint directory; empty disables
	// checkpointing.
	StateDir string
	// Resume restarts from the latest good snapshot in StateDir instead
	// of starting fresh.
	Resume bool
	// CkptEvery is the checkpoint cadence (rounds for insitu-fleet,
	// fine-tune steps for insitu-train).
	CkptEvery int
}

// AddFlags registers -telemetry, -trace-out, -pprof-addr, -fault-rate
// and -outage on fs.
func (f *Flags) AddFlags(fs *flag.FlagSet) {
	fs.BoolVar(&f.Telemetry, "telemetry", false,
		"enable counters/histograms and print a Prometheus-style dump to stderr on exit")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write JSONL trace events (rounds, uploads, deploys, plans, dispatches) to this file; implies -telemetry")
	fs.StringVar(&f.PprofAddr, "pprof-addr", "",
		"serve /metrics, /metrics.json, /debug/vars and /debug/pprof on this address (e.g. :6060); implies -telemetry")
	fs.Float64Var(&f.FaultRate, "fault-rate", 0,
		"inject per-transfer faults on the Cloud→node downlink with this probability in [0,1] (half corruption, half drops)")
	fs.StringVar(&f.Outage, "outage", "",
		"drop every downlink delivery in this START:END transfer-sequence window (e.g. 2:5)")
	fs.StringVar(&f.StateDir, "state-dir", "",
		"write crash-safe checkpoints to this directory (temp+fsync+rename, CRC-framed)")
	fs.BoolVar(&f.Resume, "resume", false,
		"resume from the latest good snapshot in -state-dir (falls back to a fresh start when empty)")
	fs.IntVar(&f.CkptEvery, "ckpt-every", 1,
		"checkpoint cadence: snapshot every N rounds (insitu-fleet) or N fine-tune steps (insitu-train)")
}

// OpenStore opens the checkpoint store named by -state-dir, or returns
// nil when checkpointing is disabled.
func (f Flags) OpenStore() (*ckpt.Store, error) {
	if f.StateDir == "" {
		if f.Resume {
			return nil, fmt.Errorf("obs: -resume requires -state-dir")
		}
		return nil, nil
	}
	return ckpt.Open(f.StateDir)
}

// Faults converts the fault-injection flags into a netsim.FaultConfig
// seeded from the simulation seed, so fault sequences replay with runs.
func (f Flags) Faults(seed uint64) (netsim.FaultConfig, error) {
	cfg := netsim.FaultConfig{
		Seed:        seed,
		CorruptProb: f.FaultRate / 2,
		DropProb:    f.FaultRate / 2,
	}
	if f.Outage != "" {
		start, end, ok := strings.Cut(f.Outage, ":")
		a, errA := strconv.ParseInt(strings.TrimSpace(start), 10, 64)
		b, errB := strconv.ParseInt(strings.TrimSpace(end), 10, 64)
		if !ok || errA != nil || errB != nil {
			return netsim.FaultConfig{}, fmt.Errorf("obs: bad -outage %q (want START:END)", f.Outage)
		}
		cfg.Outages = []netsim.Outage{{Start: a, End: b}}
	}
	if err := cfg.Validate(); err != nil {
		return netsim.FaultConfig{}, err
	}
	return cfg, nil
}

// Session is the live observability state for one command run.
type Session struct {
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer

	traceFile *os.File
	dump      bool
}

// Enabled reports whether any observability feature was requested.
func (f Flags) Enabled() bool {
	return f.Telemetry || f.TraceOut != "" || f.PprofAddr != ""
}

// Start applies the flags: it builds the registry, turns on
// instrumentation everywhere, opens the trace sink and the debug server.
// Extra routes (e.g. the fleet health plane's /healthz and /fleetz) are
// mounted on the debug server when -pprof-addr is set. The returned
// Session is non-nil even when everything is disabled (all fields
// nil-safe); call Close before exit to flush the trace and emit the
// final dump.
func Start(f Flags, routes ...telemetry.Route) (*Session, error) {
	s := &Session{dump: f.Telemetry}
	if !f.Enabled() {
		return s, nil
	}
	s.Registry = telemetry.NewRegistry()
	tensor.EnableTelemetry(s.Registry)
	nn.EnableTelemetry(s.Registry)
	node.EnableTelemetry(s.Registry)
	planner.EnableTelemetry(s.Registry)
	fleet.EnableTelemetry(s.Registry)
	ckpt.EnableTelemetry(s.Registry)

	if f.TraceOut != "" {
		file, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, fmt.Errorf("obs: creating trace file: %w", err)
		}
		s.traceFile = file
		s.Tracer = telemetry.NewTracer(file)
		planner.SetTracer(s.Tracer)
		ckpt.SetTracer(s.Tracer)
	}
	if f.PprofAddr != "" {
		srv, err := telemetry.ServeDebug(f.PprofAddr, s.Registry, routes...)
		if err != nil {
			return nil, fmt.Errorf("obs: starting debug server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "obs: serving pprof/metrics on http://%s\n", srv.Addr)
	}
	return s, nil
}

// Close flushes the trace file and, when -telemetry was set, writes the
// Prometheus-style dump to w (the commands pass os.Stderr so the dump
// stays out of table/CSV output).
func (s *Session) Close(w io.Writer) error {
	planner.SetTracer(nil)
	ckpt.SetTracer(nil)
	var firstErr error
	if s.Tracer != nil {
		if err := s.Tracer.Flush(); err != nil {
			firstErr = fmt.Errorf("obs: flushing trace: %w", err)
		}
	}
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("obs: closing trace: %w", err)
		}
	}
	if s.dump && s.Registry != nil {
		fmt.Fprintln(w, "== telemetry ==")
		if err := s.Registry.WriteProm(w); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
