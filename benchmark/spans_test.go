package main

import (
	"bytes"
	"testing"
	"time"

	"insitu/internal/telemetry"
)

func TestSelfTimeNestedAndSiblingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "capture", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "cloud", Start: 50 * ms, End: 90 * ms},
		{ID: 4, Parent: 3, Name: "step", Start: 55 * ms, End: 65 * ms},  // nested: the round must not count it twice
		{ID: 5, Parent: 3, Name: "step", Start: 60 * ms, End: 80 * ms},  // overlaps its sibling: covered once
		{ID: 6, Parent: 1, Name: "late", Start: 95 * ms, End: 120 * ms}, // runs past its parent: clipped
	}
	want := map[int]time.Duration{
		1: (100 - 30 - 40 - 5) * ms,
		2: 30 * ms,
		3: (40 - 25) * ms,
		4: 10 * ms,
		5: 20 * ms,
		6: 25 * ms,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestRecorderNestsAndSums(t *testing.T) {
	rec := newRecorder()
	root := rec.start("root", "w/1", 0)
	rec.timed("leaf", "w/1", root, func() {})
	rec.timed("leaf", "w/1", root, func() {})
	rec.end(root)
	if want := rec.spans[1].dur().Seconds() + rec.spans[2].dur().Seconds(); len(rec.spans) != 3 || rec.seconds("leaf") != want {
		t.Errorf("leaf spans sum to %v s, want %v s over two of three spans", rec.seconds("leaf"), want)
	}
	if rec.spans[1].Parent != root || rec.spans[0].dur() < rec.spans[1].dur() {
		t.Errorf("leaf is not nested in root: %+v", rec.spans)
	}
	var untraced *recorder
	ran := false
	if untraced.timed("x", "", 0, func() { ran = true }); !ran {
		t.Error("a nil recorder must still run the function")
	}
}

func TestTraceJSONLValidates(t *testing.T) {
	rec := newRecorder()
	root := rec.start("fleet.round", "cloud-bound/2", 0)
	rec.timed("jigsaw.step", "cloud-bound/2", root, func() {})
	rec.end(root)
	var buf bytes.Buffer
	if err := writeJSONL(&buf, rec.spans); err != nil {
		t.Fatal(err)
	}
	stats, err := telemetry.ValidateTrace(&buf)
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if stats.Records != 2 || stats.Durations["jigsaw.step"].Count != 1 {
		t.Errorf("trace stats %+v, want two records and one timed jigsaw.step", stats)
	}
}
