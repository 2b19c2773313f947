package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// Every emitted line must parse as one Record and round-trip through
// ValidateTrace with monotonic sequence numbers and timestamps.
func TestTraceJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit("fleet.round", Attrs{"round": 1, "captured": 200})
	tr.Emit("fleet.upload", Attrs{"bytes": int64(12345), "images": 17})
	sp := tr.StartSpan("node.dispatch")
	sp.End(Attrs{"frames": 6})
	tr.Emit("planner.plan", nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	// Line-by-line: each parses and carries the expected payload.
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	var recs []Record
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	if recs[0].Event != "fleet.round" || recs[0].Attrs["captured"] != float64(200) {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if _, ok := recs[2].Attrs["dur_ns"]; !ok {
		t.Errorf("span record missing dur_ns: %+v", recs[2])
	}
	for i, rec := range recs {
		if rec.Seq != int64(i+1) {
			t.Errorf("record %d: seq = %d", i, rec.Seq)
		}
		if i > 0 && rec.Ts < recs[i-1].Ts {
			t.Errorf("record %d: ts %d regressed below %d", i, rec.Ts, recs[i-1].Ts)
		}
	}

	stats, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateTrace: %v", err)
	}
	if stats.Records != 4 || stats.ByEvent["fleet.round"] != 1 || stats.ByEvent["node.dispatch"] != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// Concurrent emitters must interleave into whole, ordered lines.
func TestTraceConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit("ev", Attrs{"worker": w, "i": i})
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 800 {
		t.Errorf("records = %d, want 800", stats.Records)
	}
}

func TestValidateTraceRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":      "{oops\n",
		"missing event": `{"seq":1,"ts_ns":5}` + "\n",
		"seq gap":       `{"seq":1,"ts_ns":1,"event":"a"}` + "\n" + `{"seq":3,"ts_ns":2,"event":"b"}` + "\n",
		"ts regression": `{"seq":1,"ts_ns":9,"event":"a"}` + "\n" + `{"seq":2,"ts_ns":3,"event":"b"}` + "\n",
	}
	for name, in := range cases {
		if _, err := ValidateTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ValidateTrace accepted %q", name, in)
		}
	}
	if stats, err := ValidateTrace(strings.NewReader("")); err != nil || stats.Records != 0 {
		t.Errorf("empty trace: stats=%+v err=%v", stats, err)
	}
}
