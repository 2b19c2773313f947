// Command benchmark is the repo's layered benchmark of the closed loop:
// four fleet workloads, six bounded end-to-end metrics (plus the
// failed-operation count) from an untraced run, and 48 per-layer metrics
// from a separate traced run. See README.md beside this file.
//
//	go run ./benchmark                                  every workload, both runs
//	go run ./benchmark -workload node-bound -trace 0    one untraced run
//	go run ./benchmark -compare a.json b.json           verdicts between two result files
//
// After each run it prints every metric by name with its unit and then,
// as one line, the JSON object {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"insitu/internal/tensor"
)

// environment is recorded with every result: numbers from different
// hosts, core counts or kernels are not comparable.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// currentEnvironment reads the commit from the build's VCS stamp, which
// go build (benchmark/run.sh) writes in a git work tree and go run does
// not.
func currentEnvironment() environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: tensor.KernelName(), GoVersion: runtime.Version(), Commit: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// resultFile is what -out writes and -compare reads: a growing list of
// runs, so ten invocations with ten seeds make one set.
type resultFile struct {
	Schema string      `json:"schema"`
	Runs   []runResult `json:"runs"`
}

const resultSchema = "insitu-benchmark/v1"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	names := fl.String("workload", "", "comma-separated workloads to run (default: all of "+strings.Join(workloadNames(), ", ")+")")
	seed := fl.Uint64("seed", 31, "the only source of inputs: it becomes every fleet's Config.Seed")
	seconds := fl.Int("seconds", defaultSeconds, "measuring time the round counts are sized for")
	trace := fl.String("trace", "both", "0: the untraced run (end-to-end metrics); 1: the traced run (per-layer metrics); both")
	out := fl.String("out", "", "append the results to this JSON file")
	traceDir := fl.String("trace-dir", "", "write each traced run's spans to <dir>/<workload>.jsonl")
	quick := fl.Bool("quick", false, "smoke-test sizes: fleets and round counts cut about 8x; results are labelled and not comparable")
	compare := fl.Bool("compare", false, "compare two result files: -compare parent.json change.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	}
	if fl.NArg() != 0 || *seconds < 1 || (*trace != "0" && *trace != "1" && *trace != "both") {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			w, ok := workloadByName(name)
			if !ok {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", name, strings.Join(workloadNames(), ", "))
				return 2
			}
			selected = append(selected, w)
		}
	}

	env := currentEnvironment()
	fmt.Fprintf(stdout, "nproc %d, GOMAXPROCS %d, kernel %s, %s, commit %s\n", env.NumCPU, env.GOMAXPROCS, env.Kernel, env.GoVersion, env.Commit)
	var results []runResult
	exit := 0
	for _, w := range selected {
		w = w.scaled(*seconds)
		if *quick {
			w = w.quick()
		}
		for _, traced := range []bool{false, true} {
			if (traced && *trace == "0") || (!traced && *trace == "1") {
				continue
			}
			var res runResult
			var err error
			if traced {
				res, err = runTraced(w, *seed, *quick, *traceDir)
			} else {
				res, err = runUntraced(w, *seed)
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			res.Seconds, res.Quick, res.Env = *seconds, *quick, env
			if err := printResult(stdout, res); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			if !res.Correct {
				exit = 1
			}
			results = append(results, res)
		}
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return exit
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// printResult prints every metric of one run by name with its unit and
// sample count, then the result line. It fails on a non-finite metric,
// which JSON cannot carry.
func printResult(w io.Writer, res runResult) error {
	kind, defs := "untraced", endToEnd
	if res.Traced {
		kind, defs = "traced", perLayer
	}
	if res.Quick {
		kind += ", QUICK - not a measurement"
	}
	fmt.Fprintf(w, "\n== %s (%s; seed %d, sized for %d s) ==\n", res.Workload, kind, res.Seed, res.Seconds)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %-9s", d.Name, res.Metrics[d.Name].Value, d.Unit)
		if n, ok := res.Samples[d.Name]; ok {
			fmt.Fprintf(w, " n=%d", n)
		}
		if d.Moves != "" {
			fmt.Fprintf(w, " -> %s", d.Moves)
		}
		fmt.Fprintln(w)
	}
	failedFrac := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(w, "  %-34s %14.6g %-9s %d of %d operations\n", "failed_ops_frac", failedFrac, "fraction", res.Failed, res.Attempted)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	if !res.Traced {
		fmt.Fprintf(w, "  %-34s %14.6g %-9s not bounded: see fleet.uplink_bytes_per_image\n", "uplink_bytes_per_image", res.Detail["uplink_bytes_per_image"], "B")
	} else {
		fmt.Fprintf(w, "  samples: %v\n", res.Samples)
		d := res.Detail
		fmt.Fprintf(w, "  trace_valid=%v: replay predicts a %.3f s round (node %.4f s x N / workers + cloud %.3f s), the counted run took %.3f s\n",
			*res.TraceValid, d["replay_predicted_round_s"], d["replay_node_s"], d["replay_cloud_s"], d["round_s_p50_counted"])
		fmt.Fprintf(w, "  layer split of the predicted round: node diagnosis + nn %.0f %%, cloud jigsaw + transfer %.0f %%\n",
			100*d["share_node_diagnosis_nn"], 100*d["share_cloud_jigsaw_transfer"])
		fmt.Fprintf(w, "  wire.round_overhead_s = %.3f s on the wire - %.3f s in process (cloud-bound's config, round_s_p50 of each)\n",
			d["transport_wire_round_s"], d["transport_local_round_s"])
		fmt.Fprintf(w, "  trace.overhead_frac = %.3f s counted / %.3f s reference - 1\n", d["round_s_p50_counted"], d["round_s_p50_reference"])
	}
	fmt.Fprintf(w, "  report_digest %s (information only)\n", res.ReportDigest)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func loadResults(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return rf, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return rf, nil
}

// appendResults adds runs to the result file at path, creating it.
func appendResults(path string, runs []runResult) error {
	rf, err := loadResults(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	rf.Schema = resultSchema
	rf.Runs = append(rf.Runs, runs...)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
