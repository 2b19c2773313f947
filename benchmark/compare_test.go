package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "round_s_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "images_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	noisy := []float64{0.8, 1.0, 1.2, 1.4}
	cases := []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           string
	}{
		{"same numbers", lower, steady, steady, verdictOK},
		{"worse within the bound", lower, steady, []float64{1.05, 1.06, 1.04, 1.05}, verdictOK},
		{"worse past the bound", lower, steady, []float64{1.15, 1.16, 1.14, 1.15}, verdictRegressed},
		{"lower is worse for a higher-is-better metric", higher, steady, []float64{0.85, 0.86, 0.84, 0.85}, verdictRegressed},
		{"higher is fine for a higher-is-better metric", higher, steady, []float64{1.5, 1.6, 1.4, 1.5}, verdictOK},
		{"spread wider than the bound", lower, noisy, noisy, verdictUnresolved},
		{"wide spread, but every run of the change is better", lower, noisy, []float64{0.5, 0.6, 0.7, 0.75}, verdictOK},
		{"one run a side has no spread", lower, []float64{1}, []float64{1.02}, verdictUnresolved},
		{"one run a side can still regress", lower, []float64{1}, []float64{1.5}, verdictRegressed},
	}
	for _, c := range cases {
		if got := judge(c.d, c.parent, c.change); got.Verdict != c.want {
			t.Errorf("%s: %s (worse %.3f, spread %.3f), want %s", c.name, got.Verdict, got.Worse, got.Spread, c.want)
		}
	}
	if got := judge(lower, []float64{2}, []float64{3}); got.Worse != 0.5 || got.Parent != 2 || got.Change != 3 {
		t.Errorf("ratio has the wrong base: %+v", got)
	}
}

func setOf(workloadName string, failed int, roundSeconds ...float64) []runResult {
	var runs []runResult
	for _, v := range roundSeconds {
		m := make(map[string]metric)
		for _, d := range endToEnd {
			m[d.Name] = metric{Value: 1, Unit: d.Unit}
		}
		m["round_s_p50"] = metric{Value: v, Unit: "s"}
		runs = append(runs, runResult{Workload: workloadName, Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: m})
	}
	return runs
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs []runResult) string {
		path := filepath.Join(dir, name)
		if err := appendResults(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", setOf("cloud-bound", 0, 1.00, 1.01, 0.99, 1.00))
	same := write("same.json", setOf("cloud-bound", 0, 1.01, 1.00, 1.00, 0.99))
	slower := write("slower.json", setOf("cloud-bound", 0, 1.30, 1.31, 1.29, 1.30))
	failing := write("failing.json", setOf("cloud-bound", 1, 1.00, 1.01, 0.99, 1.00))

	var out, errOut bytes.Buffer
	if code := compareFiles(parent, same, &out, &errOut); code != 0 {
		t.Errorf("same numbers: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if strings.Contains(out.String(), verdictRegressed) || strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("same numbers should be ok everywhere:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(parent, slower, &out, &errOut); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("30 %% slower rounds: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(parent, failing, &out, &errOut); code != 1 {
		t.Errorf("a rise in failed_ops_frac: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(parent, filepath.Join(dir, "absent.json"), &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d", code)
	}
	// -out appends: a second write to the same file doubles the set.
	if err := appendResults(parent, setOf("cloud-bound", 0, 1.0)); err != nil {
		t.Fatal(err)
	}
	rf, err := loadResults(parent)
	if err != nil || len(rf.Runs) != 5 {
		t.Errorf("appended file has %d runs (%v), want 5", len(rf.Runs), err)
	}
}
