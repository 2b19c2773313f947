// Command insitu-bench regenerates the paper's evaluation artifacts by
// id:
//
//	insitu-bench -exp fig23            # one experiment
//	insitu-bench -exp all -scale small # everything, quick configuration
//
// Experiment ids: table1, fig5, fig6, fig7, fig11, fig12, fig14, fig15,
// fig16, fig21, fig22, fig23, table2, fig25, abl-split, abl-threshold,
// abl-perms, abl-pipeline, abl-drift, abl-quant, abl-faults, abl-crash,
// abl-fleet, all. -exp also accepts a comma-separated list; ids run in
// sorted order regardless of how they were given, so the -json report is
// ordered deterministically.
//
// -fault-rate / -outage inject downlink faults into every closed-loop
// experiment; abl-faults additionally sweeps the fault rate itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"insitu/internal/experiments"
	"insitu/internal/metrics"
	"insitu/internal/obs"
	"insitu/internal/telemetry"
	"insitu/internal/tensor"
)

// goAMD64Level reports the GOAMD64 microarchitecture level this binary
// was compiled for, so bench records are attributable to the instruction
// set they ran ("v3" builds assume AVX2 everywhere; "v1" builds rely on
// the runtime CPU probe to pick the kernel).
func goAMD64Level() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "GOAMD64" {
				return set.Value
			}
		}
	}
	if runtime.GOARCH == "amd64" {
		return "v1" // the toolchain default
	}
	return ""
}

// benchRecord is one experiment's cost in the -json report. With
// -telemetry, Counters carries the kernel/pool/loop counter deltas
// attributed to this experiment (FLOPs, pack bytes, workspace hits,
// stages, uploads, …) next to the wall-clock cost.
type benchRecord struct {
	Exp        string           `json:"exp"`
	NsPerOp    int64            `json:"ns_per_op"`
	BytesPerOp uint64           `json:"bytes_per_op"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// benchReport is the machine-readable artifact written by -json.
// Telemetry is the full end-of-run registry snapshot (counters, gauges,
// per-layer timing histograms) when -telemetry is set.
type benchReport struct {
	Schema     string              `json:"schema"`
	Timestamp  string              `json:"timestamp"`
	Scale      string              `json:"scale"`
	GoMaxProcs int                 `json:"gomaxprocs"`
	GoAMD64    string              `json:"goamd64,omitempty"`
	Kernel     string              `json:"kernel"`
	Results    []benchRecord       `json:"results"`
	Telemetry  *telemetry.Snapshot `json:"telemetry,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id, comma-separated list, or 'all'")
	scaleName := flag.String("scale", "paper", "learning-experiment scale: small, paper or scale (abl-fleet at N=1000, sharded)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonPath := flag.String("json", "", "also write a BENCH json record (wall time and bytes allocated per experiment) to this path")
	var obsFlags obs.Flags
	obsFlags.AddFlags(flag.CommandLine)
	obsFlags.AddFaultFlags(flag.CommandLine)
	flag.Parse()

	scale := experiments.Paper
	sysScale := experiments.PaperSystem
	fleetScale := experiments.PaperFleet
	switch *scaleName {
	case "paper":
	case "small":
		scale = experiments.Small
		sysScale = experiments.SmallSystem
		fleetScale = experiments.SmallFleet
	case "scale":
		// Only abl-fleet is interesting here; the learning experiments run
		// at small scale so `-exp all -scale scale` still terminates.
		scale = experiments.Small
		sysScale = experiments.SmallSystem
		fleetScale = experiments.ScaleFleet
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	faults, err := obsFlags.Faults(sysScale.Seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "insitu-bench:", err)
		os.Exit(2)
	}
	// Injected faults apply to every closed-loop experiment's deploy path
	// (table2, fig25, abl-drift and the abl-faults baseline sweep).
	sysScale.Faults = faults
	fleetScale.Faults = faults

	session, err := obs.Start(obsFlags)
	if err != nil {
		fmt.Fprintln(os.Stderr, "insitu-bench:", err)
		os.Exit(1)
	}

	// The closed-loop comparison backs both table2 and fig25; build it
	// lazily and at most once.
	var cmp *experiments.Comparison
	systems := func() *experiments.Comparison {
		if cmp == nil {
			fmt.Fprintln(os.Stderr, "running closed-loop comparison (4 variants)...")
			cmp = experiments.RunSystems(sysScale)
		}
		return cmp
	}

	runners := map[string]func() *metrics.Table{
		"table1":        func() *metrics.Table { return experiments.TableI(scale).Table() },
		"fig5":          func() *metrics.Table { return experiments.Fig5(scale).Table() },
		"fig6":          func() *metrics.Table { return experiments.Fig6(scale).Table() },
		"fig7":          func() *metrics.Table { return experiments.Fig7(scale).Table() },
		"fig11":         func() *metrics.Table { return experiments.Fig11().Table() },
		"fig12":         func() *metrics.Table { return experiments.Fig12().Table() },
		"fig14":         func() *metrics.Table { return experiments.Fig14().Table() },
		"fig15":         func() *metrics.Table { return experiments.Fig15().Table() },
		"fig16":         func() *metrics.Table { return experiments.Fig16().Table() },
		"fig21":         func() *metrics.Table { return experiments.Fig21().Table() },
		"fig22":         func() *metrics.Table { return experiments.Fig22().Table() },
		"fig23":         func() *metrics.Table { return experiments.Fig23().Table() },
		"table2":        func() *metrics.Table { return experiments.TableII(systems()).Table() },
		"fig25":         func() *metrics.Table { return experiments.Fig25(systems()).Table() },
		"abl-split":     func() *metrics.Table { return experiments.AblationSplit().Table() },
		"abl-threshold": func() *metrics.Table { return experiments.AblationThreshold(scale).Table() },
		"abl-perms":     func() *metrics.Table { return experiments.AblationPerms(scale).Table() },
		"abl-pipeline":  func() *metrics.Table { return experiments.AblationPipeline().Table() },
		"abl-drift":     func() *metrics.Table { return experiments.AblationDrift(sysScale).Table() },
		"abl-quant":     func() *metrics.Table { return experiments.AblationQuant(scale).Table() },
		"abl-faults":    func() *metrics.Table { return experiments.AblationFaults(sysScale).Table() },
		"abl-crash":     func() *metrics.Table { return experiments.AblationCrash(sysScale).Table() },
		"abl-fleet":     func() *metrics.Table { return experiments.AblationFleet(fleetScale).Table() },
	}

	// Resolve -exp into a sorted, deduplicated id list: the report's
	// Results array (and the tables on stdout) come out in the same order
	// however the ids were spelled.
	var ids []string
	if *exp == "all" {
		for id := range runners {
			ids = append(ids, id)
		}
	} else {
		seen := map[string]bool{}
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id != "" && !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Strings(ids)
	report := benchReport{
		Schema:     "insitu-bench/v1",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Scale:      *scaleName,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoAMD64:    goAMD64Level(),
		Kernel:     tensor.KernelName(),
	}
	for _, id := range ids {
		run, ok := runners[id]
		if !ok {
			known := make([]string, 0, len(runners))
			for k := range runners {
				known = append(known, k)
			}
			sort.Strings(known)
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s, all\n", id, strings.Join(known, ", "))
			os.Exit(2)
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		telBefore := session.Registry.Snapshot()
		start := time.Now()
		table := run()
		elapsed := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		rec := benchRecord{
			Exp:        id,
			NsPerOp:    elapsed.Nanoseconds(),
			BytesPerOp: after.TotalAlloc - before.TotalAlloc,
		}
		if session.Registry != nil {
			rec.Counters = session.Registry.Snapshot().CounterDelta(telBefore)
		}
		report.Results = append(report.Results, rec)
		if *csv {
			fmt.Print(table.CSV())
		} else {
			fmt.Println(table.String())
		}
	}
	if session.Registry != nil {
		snap := session.Registry.Snapshot()
		report.Telemetry = &snap
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "encoding -json report: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing -json report: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
	if err := session.Close(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "insitu-bench:", err)
		os.Exit(1)
	}
}
