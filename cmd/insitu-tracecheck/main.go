// Command insitu-tracecheck validates a JSONL trace produced with
// -trace-out: every line must parse, sequence numbers must be dense and
// timestamps monotonic. It prints per-event counts and can assert that
// specific events are present, which is how `make trace-smoke` and CI
// verify a live run end to end:
//
//	insitu-tracecheck -require fleet.round,fleet.upload,fleet.deploy trace.jsonl
//	insitu-tracecheck -stats fleet.jsonl     # per-span duration table
//
// Any invalid line makes the exit code nonzero; validation still scans
// the whole file and reports every violation (capped), so one corrupt
// record cannot hide the rest.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"insitu/internal/metrics"
	"insitu/internal/telemetry"
)

func main() {
	require := flag.String("require", "", "comma-separated event names that must appear at least once")
	quiet := flag.Bool("q", false, "suppress the per-event summary")
	withStats := flag.Bool("stats", false, "print per-span-kind duration stats (count, total, mean, max)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: insitu-tracecheck [-require ev1,ev2] [-stats] [-q] trace.jsonl")
		os.Exit(2)
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	stats, verr := telemetry.ValidateTrace(f)
	if !*quiet {
		events := make([]string, 0, len(stats.ByEvent))
		for ev := range stats.ByEvent {
			events = append(events, ev)
		}
		sort.Strings(events)
		for _, ev := range events {
			fmt.Printf("%-24s %d\n", ev, stats.ByEvent[ev])
		}
	}
	if *withStats && len(stats.Durations) > 0 {
		kinds := make([]string, 0, len(stats.Durations))
		for ev := range stats.Durations {
			kinds = append(kinds, ev)
		}
		sort.Strings(kinds)
		tab := metrics.NewTable("span durations", "span", "count", "total ms", "mean ms", "max ms")
		for _, ev := range kinds {
			d := stats.Durations[ev]
			tab.AddRow(ev,
				fmt.Sprintf("%d", d.Count),
				fmt.Sprintf("%.2f", float64(d.TotalNs)/1e6),
				fmt.Sprintf("%.2f", float64(d.MeanNs())/1e6),
				fmt.Sprintf("%.2f", float64(d.MaxNs)/1e6))
		}
		fmt.Print(tab.String())
	}
	if verr != nil {
		for _, e := range stats.Errors {
			fmt.Fprintln(os.Stderr, "insitu-tracecheck:", e)
		}
		if extra := stats.InvalidLines - len(stats.Errors); extra > 0 {
			fmt.Fprintf(os.Stderr, "insitu-tracecheck: ... and %d more invalid line(s)\n", extra)
		}
		fatal(fmt.Errorf("%s: %d invalid line(s)", path, stats.InvalidLines))
	}
	if stats.Records == 0 {
		fatal(fmt.Errorf("%s: trace is empty", path))
	}
	var missing []string
	if *require != "" {
		for _, ev := range strings.Split(*require, ",") {
			ev = strings.TrimSpace(ev)
			if ev != "" && stats.ByEvent[ev] == 0 {
				missing = append(missing, ev)
			}
		}
	}
	if len(missing) > 0 {
		fatal(fmt.Errorf("%s: %d records OK but required events missing: %s",
			path, stats.Records, strings.Join(missing, ", ")))
	}
	fmt.Printf("%s: %d records OK\n", path, stats.Records)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "insitu-tracecheck:", err)
	os.Exit(1)
}
