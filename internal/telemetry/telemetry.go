// Package telemetry is the repo's zero-dependency instrumentation
// substrate: a concurrency-safe registry of counters, gauges and
// fixed-bucket histograms, plus a lightweight JSONL event/span tracer
// (trace.go) and optional pprof/expvar debug serving (http.go).
//
// The paper's argument is quantitative — latency under a deadline
// (eqs. 3, 5–8), energy, data movement (Table II), update time
// (Fig. 25) — so every hot or decision-making path in the repo reports
// through this package: the GEMM kernels and buffer pools in
// internal/tensor, per-layer timings in internal/nn, the node runtime,
// the configuration planner and the closed incremental-learning loop in
// internal/core.
//
// Two properties shape the design:
//
//   - Nil safety. Every method on Counter, Gauge, Histogram, Registry
//     and Tracer is a no-op on a nil receiver. Instrumented packages
//     keep nil metric handles until someone calls their EnableTelemetry;
//     the disabled path is a nil-check branch — no allocation, no
//     atomics — so steady-state kernels stay at 0 B/op.
//   - Allocation-free updates. Counter.Add, Gauge.Set/Add and
//     Histogram.Observe touch only pre-allocated atomics, so the
//     *enabled* path also stays at 0 B/op in steady state; only
//     metric creation and snapshotting allocate.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// store overwrites the count; only Registry.LoadSnapshot uses it (a
// counter is otherwise monotonic).
func (c *Counter) store(v int64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Gauge is a float64 metric that can move both ways.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates v into the gauge. No-op on a nil receiver.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Bounds are upper
// bucket boundaries in ascending order; an implicit +Inf bucket catches
// everything above the last bound.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the scan is
	// branch-predictable, which beats binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bounds returns the upper bucket boundaries (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns per-bucket (non-cumulative) counts, one per bound
// plus the final +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// snapshot copies the histogram's state out.
func (h *Histogram) snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Bounds:  h.Bounds(),
		Buckets: h.BucketCounts(),
	}
}

// restore overwrites the histogram's state from a snapshot; only
// Registry.LoadSnapshot uses it. A snapshot whose bucket layout does
// not match the live histogram is ignored.
func (h *Histogram) restore(s HistogramSnapshot) {
	if h == nil || len(s.Buckets) != len(h.buckets) {
		return
	}
	for i, c := range s.Buckets {
		h.buckets[i].Store(c)
	}
	h.count.Store(s.Count)
	h.sumBits.Store(math.Float64bits(s.Sum))
}

// ExpBuckets returns n upper bounds starting at start and growing by
// factor: start, start·factor, start·factor², … Handy for latency
// histograms spanning several orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets requires start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry is a named collection of metrics. Metric names should follow
// the Prometheus convention (snake_case, unit-suffixed, _total for
// counters); names are unique per kind via get-or-create accessors.
// All methods are safe for concurrent use and no-ops on a nil receiver.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	windows    map[string]*Window
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		windows:    make(map[string]*Window),
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Returns nil (a valid no-op metric) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// Returns nil (a valid no-op metric) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with
// the given bounds on first use (later calls reuse the existing buckets
// and ignore bounds). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Window returns the rolling-window histogram with the given name,
// creating it with the given bounds/span/slots on first use (later
// calls reuse the existing window and ignore the shape arguments).
// Returns nil (a valid no-op window) on a nil registry.
func (r *Registry) Window(name string, bounds []float64, span time.Duration, slots int) *Window {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	w := r.windows[name]
	r.mu.RUnlock()
	if w != nil {
		return w
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if w = r.windows[name]; w == nil {
		w = NewWindow(bounds, span, slots)
		r.windows[name] = w
	}
	return w
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

// Snapshot is a point-in-time copy of every metric in a registry. It
// marshals cleanly to JSON: /metrics.json, expvar and checkpoints carry
// it.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Windows holds each rolling window merged across its live slots —
	// the last-span view, not the process-lifetime one.
	Windows map[string]HistogramSnapshot `json:"windows,omitempty"`
}

// Snapshot copies the registry's current state. Returns a zero Snapshot
// on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	if len(r.windows) > 0 {
		s.Windows = make(map[string]HistogramSnapshot, len(r.windows))
		for name, w := range r.windows {
			s.Windows[name] = w.Snapshot()
		}
	}
	return s
}

// LoadSnapshot restores a snapshot into the registry, creating any
// missing metrics: counters and gauges are set to the stored values and
// histograms get their bounds AND per-bucket counts back, so quantile
// state survives a checkpoint/resume round trip (a histogram restored
// from Count/Sum alone would answer every Quantile with zero). Window
// entries are folded into an existing window's current slot when one
// with a matching shape is already registered; a snapshot cannot carry
// the span/slot geometry needed to recreate one from scratch.
func (r *Registry) LoadSnapshot(s Snapshot) {
	if r == nil {
		return
	}
	for name, v := range s.Counters {
		r.Counter(name).store(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Set(v)
	}
	for name, hs := range s.Histograms {
		r.Histogram(name, hs.Bounds).restore(hs)
	}
	for name, ws := range s.Windows {
		r.mu.RLock()
		w := r.windows[name]
		r.mu.RUnlock()
		w.restore(ws)
	}
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteProm writes every metric in the Prometheus text exposition
// format (sorted by name, histograms as cumulative _bucket/_sum/_count
// series). A nil registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	s := r.Snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	// Labeled series (name{k="v"}, built with Label) share one # TYPE
	// line per base name, as the exposition format requires. Sorting by
	// full name groups a base with its labeled variants, so tracking the
	// previously-emitted base suffices.
	lastType := ""
	typeLine := func(name, kind string) {
		if base := promBase(name); base != lastType {
			p("# TYPE %s %s\n", base, kind)
			lastType = base
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		typeLine(name, "counter")
		p("%s %d\n", name, s.Counters[name])
	}
	lastType = ""
	for _, name := range sortedKeys(s.Gauges) {
		typeLine(name, "gauge")
		p("%s %v\n", name, s.Gauges[name])
	}
	emitHist := func(name string, h HistogramSnapshot) {
		typeLine(name, "histogram")
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Buckets[i]
			p("%s_bucket{le=\"%v\"} %d\n", name, b, cum)
		}
		p("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		p("%s_sum %v\n%s_count %d\n", name, h.Sum, name, h.Count)
	}
	lastType = ""
	for _, name := range sortedKeys(s.Histograms) {
		emitHist(name, s.Histograms[name])
	}
	// Windows render as ordinary histogram families; the rolling-window
	// semantics only change WHAT the counts cover, not the exposition.
	lastType = ""
	for _, name := range sortedKeys(s.Windows) {
		emitHist(name, s.Windows[name])
	}
	return err
}

// MaxLabelValueLen caps sanitized label values: per-node series derive
// their labels from ids and hostnames, and an unbounded hostile value
// would bloat every exposition line that carries it.
const MaxLabelValueLen = 120

// Label renders a metric name with one Prometheus-style label pair:
// Label("fleet_uploads_total", "node", "3") → `fleet_uploads_total{node="3"}`.
// The fleet uses it to give every simulated node its own counter series
// under a shared base name; WriteProm groups the variants under one
// # TYPE line.
//
// Both parts are sanitized rather than escaped: the key is reduced to
// the [a-zA-Z_][a-zA-Z0-9_]* charset the exposition format requires,
// and the value has `"`, `\`, newlines and braces replaced with `_`
// and is capped at MaxLabelValueLen bytes. Escaping was the previous
// approach, but a registry key is also a map key — two values that
// differ only in escaping would collide or, worse, a crafted value
// could smuggle a second label pair into the series name. Sanitized
// series can never emit malformed exposition text.
func Label(name, key, value string) string {
	return name + "{" + sanitizeLabelKey(key) + `="` + SanitizeLabelValue(value) + `"}`
}

// SanitizeLabelValue makes a string safe to embed as a Prometheus label
// value without escaping: `"`, `\`, newlines, carriage returns and
// braces become `_`, and the result is truncated to MaxLabelValueLen
// bytes. Clean values are returned unchanged (no allocation).
func SanitizeLabelValue(v string) string {
	if len(v) > MaxLabelValueLen {
		v = v[:MaxLabelValueLen]
	}
	if !strings.ContainsAny(v, "\"\\\n\r{}") {
		return v
	}
	b := []byte(v)
	for i, c := range b {
		switch c {
		case '"', '\\', '\n', '\r', '{', '}':
			b[i] = '_'
		}
	}
	return string(b)
}

// sanitizeLabelKey forces a label key into [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabelKey(k string) string {
	if k == "" {
		return "_"
	}
	clean := true
	for i := 0; i < len(k); i++ {
		if !isLabelKeyByte(k[i], i == 0) {
			clean = false
			break
		}
	}
	if clean {
		return k
	}
	b := []byte(k)
	for i := range b {
		if !isLabelKeyByte(b[i], i == 0) {
			b[i] = '_'
		}
	}
	return string(b)
}

func isLabelKeyByte(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

// promBase strips a {label} suffix, returning the series' base name.
func promBase(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
