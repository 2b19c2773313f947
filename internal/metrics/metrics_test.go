package metrics

import (
	"encoding/csv"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("T", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22")
	s := tb.String()
	if !strings.Contains(s, "== T ==") {
		t.Fatalf("missing title:\n%s", s)
	}
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "22") {
		t.Fatalf("missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// title + header + rule + 2 rows
	if len(lines) != 5 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
	}
}

func TestAddRowPads(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	if len(tb.Rows[0]) != 3 {
		t.Fatalf("row not padded: %v", tb.Rows[0])
	}
	tb.AddRow("1", "2", "3", "4")
	if len(tb.Rows[1]) != 3 {
		t.Fatalf("row not truncated: %v", tb.Rows[1])
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", "2")
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("bad header: %q", csv)
	}
	if !strings.Contains(csv, `"x,y",2`) {
		t.Fatalf("comma-bearing cell not quoted per RFC 4180: %q", csv)
	}
}

// RFC 4180 escaping: commas and quotes and newlines survive a round trip
// through the standard library's CSV reader.
func TestCSVRFC4180RoundTrip(t *testing.T) {
	tb := NewTable("", "name", "value", "note")
	rows := [][]string{
		{"plain", "1", "nothing special"},
		{"comma,cell", "2", "a, b, and c"},
		{`quote"cell`, "3", `she said "hi"`},
		// NB: encoding/csv's reader folds \r\n to \n inside quoted fields,
		// so the round-trip check uses bare \n; the raw-output checks
		// below cover the quoting itself.
		{"multi\nline", "4", "line1\nline2"},
		{"", "5", ","},
	}
	for _, r := range rows {
		tb.AddRow(r...)
	}
	out := tb.CSV()

	rd := csv.NewReader(strings.NewReader(out))
	got, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("output does not parse as CSV: %v\n%s", err, out)
	}
	if len(got) != len(rows)+1 {
		t.Fatalf("parsed %d records, want %d", len(got), len(rows)+1)
	}
	for i, want := range rows {
		for j := range want {
			if got[i+1][j] != want[j] {
				t.Errorf("row %d col %d = %q, want %q", i, j, got[i+1][j], want[j])
			}
		}
	}
	// Specific escapes, byte-for-byte.
	if !strings.Contains(out, `"comma,cell"`) {
		t.Error("comma cell not quoted")
	}
	if !strings.Contains(out, `"quote""cell"`) {
		t.Error("embedded quote not doubled")
	}
	if !strings.Contains(out, "\"multi\nline\"") {
		t.Error("newline cell not quoted")
	}
	if strings.Contains(out, `"plain"`) {
		t.Error("plain cell needlessly quoted")
	}
}
