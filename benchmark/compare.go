package main

import (
	"fmt"
	"io"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare: the medians of the parent's and the
// change's runs, how much worse the change is as a share of the parent's
// median, and the verdict.
type comparison struct {
	Metric  metricDef
	Parent  float64
	Change  float64
	Worse   float64 // (change - parent) / parent, signed so that positive is worse
	Spread  float64 // wider interquartile range of the two sides / parent median
	Verdict string
}

// judge compares one metric's values from two sets of runs. The change
// has regressed when its median is worse than the parent's by more than
// the bound. Where the run-to-run spread is wider than the bound (or
// cannot be estimated from fewer than two runs a side) the metric is
// unresolved, not unchanged — unless every run of the change reads
// better than every run of the parent.
func judge(d metricDef, parent, change []float64) comparison {
	c := comparison{Metric: d, Parent: median(parent), Change: median(change)}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	c.Worse = sign * (c.Change - c.Parent) / c.Parent
	spreadKnown := true
	for _, side := range [][]float64{parent, change} {
		q1, q3, ok := quartiles(side)
		spreadKnown = spreadKnown && ok
		c.Spread = max(c.Spread, (q3-q1)/c.Parent)
	}
	allBetter := true
	for _, p := range parent {
		for _, v := range change {
			if sign*(v-p) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case c.Worse > d.Bound:
		c.Verdict = verdictRegressed
	case (!spreadKnown || c.Spread > d.Bound) && !allBetter:
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictOK
	}
	return c
}

// failedFrac sums failed over attempted across a workload's runs.
func failedFrac(runs []runResult) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// untracedRuns picks the runs of one workload that end-to-end metrics
// may be read from.
func untracedRuns(rf resultFile, name string) []runResult {
	var runs []runResult
	for _, r := range rf.Runs {
		if r.Workload == name && !r.Traced && !r.Quick {
			runs = append(runs, r)
		}
	}
	return runs
}

func values(runs []runResult, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// compareFiles prints the comparison table and returns the exit code: 1
// on any regressed metric or any rise in failed_ops_frac.
func compareFiles(parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := loadResults(parentPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	change, err := loadResults(changePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	exit := 0
	fmt.Fprintf(stdout, "%-12s %-24s %12s %12s %20s %7s %8s  %s\n", "workload", "metric", "parent", "change", "change/parent", "bound", "spread", "verdict")
	for _, w := range workloads {
		p, c := untracedRuns(parent, w.Name), untracedRuns(change, w.Name)
		if len(p) == 0 || len(c) == 0 {
			fmt.Fprintf(stdout, "%-12s no untraced runs on both sides (%d, %d)\n", w.Name, len(p), len(c))
			continue
		}
		for _, d := range endToEnd {
			row := judge(d, values(p, d.Name), values(c, d.Name))
			if row.Verdict == verdictRegressed {
				exit = 1
			}
			fmt.Fprintf(stdout, "%-12s %-24s %12.6g %12.6g %9.4f of %-8.4g %6.0f%% %7.1f%%  %s\n",
				w.Name, d.Name, row.Parent, row.Change, row.Change/row.Parent, row.Parent, 100*d.Bound, 100*row.Spread, row.Verdict)
		}
		pf, cf := failedFrac(p), failedFrac(c)
		verdict := verdictOK
		if cf > pf {
			verdict, exit = verdictRegressed, 1
		}
		fmt.Fprintf(stdout, "%-12s %-24s %12.6g %12.6g %20s %6s%% %8s  %s (n=%d, %d)\n", w.Name, "failed_ops_frac", pf, cf, "", "0", "", verdict, len(p), len(c))
	}
	return exit
}
