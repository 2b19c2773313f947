// insitu-fleetbench regenerates BENCH_fleet.json, the machine-readable
// record of the fleet-scale benchmarks that the CI perf gate
// (insitu-benchdiff) compares against.
//
// Each -sizes entry runs the full closed loop (bootstrap + rounds) at
// that fleet size under the sharded-ingestion scale configuration and
// emits one row per size:
//
//	ns_per_op        p99 admission latency in nanoseconds (wall-clock;
//	                 gated with a generous tolerance)
//	bytes_per_op     peak live heap over the run's round boundaries
//	                 (recorded for the scaling story, not gated)
//	bytes_per_upload mean metered uplink bytes per uploaded sample
//	                 (deterministic; gated tight)
//
// Prior rounds in the output file are preserved verbatim, mirroring
// insitu-kernelbench: the file is a history, not a snapshot.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"insitu/internal/benchfmt"
	"insitu/internal/experiments"
	"insitu/internal/fleetcli"
	"insitu/internal/tensor"
)

// roundName is the block this tool (re)generates in the output file.
const roundName = "fleet-scale"

func main() {
	out := flag.String("out", "BENCH_fleet.json", "output file")
	sizes := flag.String("sizes", "1000", "comma-separated fleet sizes N to sweep")
	shards := flag.Int("shards", 8, "ingestion shards per run")
	maxLive := flag.Int("max-live-nodes", 128, "resident node states; the rest spill to disk")
	flag.Parse()

	s := experiments.ScaleFleet
	s.Sizes = fleetcli.ParseInts(*sizes, "fleet size")
	if len(s.Sizes) == 0 {
		fmt.Fprintln(os.Stderr, "insitu-fleetbench: -sizes is empty")
		os.Exit(2)
	}
	s.Shards = *shards
	s.MaxLiveNodes = *maxLive

	var rows []benchfmt.Row
	for _, n := range s.Sizes {
		fmt.Fprintf(os.Stderr, "running fleet N=%d (shards=%d, max-live=%d)...\n", n, s.Shards, s.MaxLiveNodes)
		one := s
		one.Sizes = []int{n}
		start := time.Now()
		res := experiments.AblationFleet(one)
		fmt.Fprintf(os.Stderr, "N=%d done in %.1fs\n", n, time.Since(start).Seconds())
		row := res.Rows[0]
		rows = append(rows, benchfmt.Row{
			Exp:            fmt.Sprintf("fleet/N=%d/S=%d", n, s.Shards),
			NsPerOp:        int64(row.AdmitP99Seconds * 1e9),
			BytesPerOp:     int64(row.PeakHeapBytes),
			BytesPerUpload: row.BytesPerUpload,
		})
	}

	d := benchfmt.Doc{
		Schema:    "insitu-kernel-bench/v2",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		CPU:       cpuModel(),
		HostProcs: runtime.NumCPU(),
		Kernel:    tensor.KernelName(),
		Kernels:   tensor.KernelNames(),
		Rounds:    loadPriorRounds(*out),
	}
	raw, err := json.Marshal(rows)
	if err != nil {
		fatal(err)
	}
	d.Rounds = append(d.Rounds, benchfmt.Round{
		Name: roundName,
		Note: "sharded ingestion at scale: ns_per_op is p99 admission latency (wall-clock), " +
			"bytes_per_op is peak live heap at round boundaries, bytes_per_upload is " +
			"deterministic uplink cost per sample. Caps: " +
			fmt.Sprintf("max-round-samples=%d max-calib-samples=%d eval-samples=%d max-live-nodes=%d.",
				s.MaxRoundSamples, s.MaxCalibSamples, s.EvalSamples, s.MaxLiveNodes),
		Results: raw,
	})

	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d fleet rows)\n", *out, len(rows))
}

// loadPriorRounds keeps any rounds other than the one this run
// regenerates, so reruns replace rather than stack.
func loadPriorRounds(path string) []benchfmt.Round {
	d, err := benchfmt.Load(path)
	if err != nil {
		return nil
	}
	kept := d.Rounds[:0]
	for _, r := range d.Rounds {
		if r.Name != roundName {
			kept = append(kept, r)
		}
	}
	return kept
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "insitu-fleetbench:", err)
	os.Exit(1)
}
