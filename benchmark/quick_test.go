package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insitu/internal/telemetry"
)

// resultLines parses every result line of a run's standard output.
func resultLines(t *testing.T, stdout string) []map[string]json.RawMessage {
	t.Helper()
	var lines []map[string]json.RawMessage
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		lines = append(lines, obj)
	}
	return lines
}

func checkResultLine(t *testing.T, obj map[string]json.RawMessage, defs []metricDef) {
	t.Helper()
	if len(obj) != 4 {
		t.Errorf("result line has %d keys, want correct, attempted, failed, metrics", len(obj))
	}
	if string(obj["correct"]) != "true" || string(obj["failed"]) != "0" {
		t.Errorf("correct=%s failed=%s", obj["correct"], obj["failed"])
	}
	var metrics map[string]metric
	if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
	}
}

// The four workloads at smoke-test size, so none of them can rot: the
// loopback one closes its listener and must see both agents end on Bye,
// or its run is not correct. One traced run covers the counted run, the
// staged replay and the probes.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("five fleet set-ups take about 30 s")
	}
	dir := t.TempDir()
	results := filepath.Join(dir, "quick.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-trace", "0", "-seed", "7", "-out", results}, &stdout, &stderr); code != 0 {
		t.Fatalf("untraced quick pass: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := resultLines(t, stdout.String())
	if len(lines) != len(workloads) {
		t.Fatalf("%d result lines, want one per workload", len(lines))
	}
	for _, obj := range lines {
		checkResultLine(t, obj, endToEnd)
	}
	rf, err := loadResults(results)
	if err != nil || len(rf.Runs) != len(workloads) {
		t.Fatalf("result file: %d runs, %v", len(rf.Runs), err)
	}
	for _, r := range rf.Runs {
		if !r.Quick {
			t.Errorf("%s: quick result is not labelled", r.Workload)
		}
	}
	if runs := untracedRuns(rf, "cloud-bound"); len(runs) != 0 {
		t.Error("-compare must not read quick results")
	}

	stdout.Reset()
	if code := run([]string{"-quick", "-trace", "1", "-workload", "cloud-bound", "-seed", "7", "-trace-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("traced quick run: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines = resultLines(t, stdout.String())
	if len(lines) != 1 {
		t.Fatalf("%d result lines, want 1", len(lines))
	}
	checkResultLine(t, lines[0], perLayer)
	trace, err := os.Open(filepath.Join(dir, "cloud-bound.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer trace.Close()
	stats, err := telemetry.ValidateTrace(trace)
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	for _, event := range []string{"fleet.bootstrap", "fleet.round", "fleet.checkpoint", "diagnosis.measure", "jigsaw.step", "transfer.finetune", "deploy.deliver"} {
		if stats.ByEvent[event] == 0 {
			t.Errorf("trace has no %s span", event)
		}
	}
}

func TestBadArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"-compare", "only-one.json"}} {
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
