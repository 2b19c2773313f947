package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insitu/internal/netsim"
	"insitu/internal/nn"
	"insitu/internal/node"
	"insitu/internal/planner"
	"insitu/internal/telemetry"
	"insitu/internal/tensor"
)

// disableAll turns package instrumentation back off after a test.
func disableAll() {
	tensor.EnableTelemetry(nil)
	nn.EnableTelemetry(nil)
	node.EnableTelemetry(nil)
	planner.EnableTelemetry(nil)
}

func TestDisabledSessionIsInert(t *testing.T) {
	s, err := Start(Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Registry != nil || s.Tracer != nil {
		t.Fatalf("disabled session should have nil registry/tracer: %+v", s)
	}
	var sb strings.Builder
	if err := s.Close(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("disabled session wrote output: %q", sb.String())
	}
}

func TestStartEnablesInstrumentationAndTrace(t *testing.T) {
	t.Cleanup(disableAll)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	s, err := Start(Flags{Telemetry: true, TraceOut: path})
	if err != nil {
		t.Fatal(err)
	}
	if s.Registry == nil || s.Tracer == nil {
		t.Fatal("enabled session missing registry or tracer")
	}

	// Instrumented packages are live: a matmul moves the kernel counters.
	a := tensor.New(8, 8)
	b := tensor.New(8, 8)
	tensor.MatMul(a, b)
	snap := s.Registry.Snapshot()
	if snap.Counters["tensor_gemm_small_calls_total"] == 0 &&
		snap.Counters["tensor_gemm_calls_total"] == 0 {
		t.Fatalf("gemm counters did not move: %v", snap.Counters)
	}

	s.Tracer.Emit("test.event", telemetry.Attrs{"k": 1})
	var sb strings.Builder
	if err := s.Close(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tensor_gemm") {
		t.Fatalf("telemetry dump missing counters:\n%s", sb.String())
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := telemetry.ValidateTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ByEvent["test.event"] != 1 {
		t.Fatalf("trace events = %v", stats.ByEvent)
	}
}

func TestAddFlagsRegistersAll(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f.AddFlags(fs)
	if err := fs.Parse([]string{"-telemetry", "-trace-out", "t.jsonl", "-pprof-addr", ":0"}); err != nil {
		t.Fatal(err)
	}
	if !f.Telemetry || f.TraceOut != "t.jsonl" || f.PprofAddr != ":0" {
		t.Fatalf("flags not parsed: %+v", f)
	}
	if !f.Enabled() {
		t.Fatal("Enabled() = false")
	}
	// The fault flags are registered apart, by the closed-loop commands.
	if fs.Lookup("fault-rate") != nil || fs.Lookup("outage") != nil {
		t.Fatal("AddFlags registered the fault flags")
	}
}

func TestFaultFlagsParse(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.AddFaultFlags(fs)
	if err := fs.Parse([]string{"-fault-rate", "0.4", "-outage", "2:5"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Faults(99)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 99 || cfg.CorruptProb != 0.2 || cfg.DropProb != 0.2 {
		t.Fatalf("fault config %+v", cfg)
	}
	if len(cfg.Outages) != 1 || cfg.Outages[0] != (netsim.Outage{Start: 2, End: 5}) {
		t.Fatalf("outage window %+v", cfg.Outages)
	}
	if !cfg.Enabled() {
		t.Fatal("parsed faults not enabled")
	}
}

func TestFaultFlagsZeroValueIsPerfectLink(t *testing.T) {
	cfg, err := Flags{}.Faults(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Enabled() {
		t.Fatalf("no flags should mean a perfect link: %+v", cfg)
	}
}

func TestFaultFlagsRejectBadValues(t *testing.T) {
	for _, f := range []Flags{
		{FaultRate: -0.5},
		{FaultRate: 1.5},
		{Outage: "five:six"},
		{Outage: "7"},
		{Outage: "9:4"},
	} {
		if _, err := f.Faults(1); err == nil {
			t.Fatalf("bad flags accepted: %+v", f)
		}
	}
}
