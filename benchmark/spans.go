package main

import (
	"io"
	"sort"
	"time"

	"insitu/internal/telemetry"
)

// span is one timed call into a layer, recorded by the harness around
// the call. Spans of one round share a trace id (workload/round).
type span struct {
	ID     int
	Parent int // 0 = no parent
	Trace  string
	Name   string
	Start  time.Duration // since the recorder started
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is used from
// the one driver goroutine only.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (ids start at 1).
func (r *recorder) start(name, trace string, parent int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: time.Since(r.t0)})
	return id
}

func (r *recorder) end(id int) { r.spans[id-1].End = time.Since(r.t0) }

// timed runs fn inside a span and returns its duration in seconds. On a
// nil recorder (an untraced run) it only times fn.
func (r *recorder) timed(name, trace string, parent int, fn func()) float64 {
	if r == nil {
		start := time.Now()
		fn()
		return time.Since(start).Seconds()
	}
	id := r.start(name, trace, parent)
	fn()
	r.end(id)
	return r.spans[id-1].dur().Seconds()
}

// seconds returns the summed duration of the spans called name.
func (r *recorder) seconds(name string) float64 {
	var total float64
	for _, s := range r.spans {
		if s.Name == name {
			total += s.dur().Seconds()
		}
	}
	return total
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeJSONL writes the spans as telemetry trace records (one JSON
// object per line, validated by telemetry.ValidateTrace and tabulated
// by insitu-tracecheck -stats through dur_ns).
func writeJSONL(w io.Writer, spans []span) error {
	tr := telemetry.NewTracer(w)
	self := selfTimes(spans)
	for _, s := range spans {
		tr.Emit(s.Name, telemetry.Attrs{
			"id": s.ID, "parent": s.Parent, "trace": s.Trace,
			"start_ns": int64(s.Start), "end_ns": int64(s.End),
			"dur_ns": int64(s.dur()), "self_ns": int64(self[s.ID]),
		})
	}
	return tr.Flush()
}
