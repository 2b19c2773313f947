package telemetry

import (
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// Nil receivers must be inert: instrumented packages hold nil handles
// until EnableTelemetry, and the kernels call these on every op.
func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	var tr *Tracer
	c.Add(3)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tr.Emit("x", nil)
	tr.StartSpan("x").End(nil)
	if err := tr.Flush(); err != nil {
		t.Fatalf("nil tracer Flush: %v", err)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics reported non-zero values")
	}
	if r.Counter("c") != nil || r.Gauge("g") != nil || r.Histogram("h", nil) != nil {
		t.Fatal("nil registry returned non-nil metrics")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if err := r.WriteProm(io.Discard); err != nil {
		t.Fatalf("nil registry WriteProm: %v", err)
	}
}

// Concurrent updates from many goroutines must not lose counts (run
// under -race via make race).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ops_total")
			g := r.Gauge("level")
			h := r.Histogram("lat_us", ExpBuckets(1, 10, 4))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 100))
			}
		}()
	}
	wg.Wait()
	const total = workers * perWorker
	if got := r.Counter("ops_total").Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := r.Gauge("level").Value(); got != total {
		t.Errorf("gauge = %g, want %d", got, total)
	}
	h := r.Histogram("lat_us", nil)
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	sum := 0.0
	for _, c := range h.BucketCounts() {
		sum += float64(c)
	}
	if int64(sum) != total {
		t.Errorf("bucket counts sum to %g, want %d", sum, total)
	}
}

// Bucket boundaries are inclusive upper bounds; values above the last
// bound land in the implicit +Inf bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0, 1, 1.0001, 10, 50, 100, 101, 1e9} {
		h.Observe(v)
	}
	// ≤1: {0,1}; ≤10: {1.0001,10}; ≤100: {50,100}; +Inf: {101,1e9}
	want := []int64{2, 2, 2, 2}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", got, want)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if math.Abs(h.Sum()-(0+1+1.0001+10+50+100+101+1e9)) > 1e-6 {
		t.Errorf("sum = %g", h.Sum())
	}
	// Unsorted bounds are sorted at creation.
	h2 := r.Histogram("h2", []float64{100, 1, 10})
	if b := h2.Bounds(); b[0] != 1 || b[2] != 100 {
		t.Errorf("bounds not sorted: %v", b)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 4, 5)
	want := []float64{1, 4, 16, 64, 256}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

// Get-or-create must hand every caller the same metric instance.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("x", []float64{1}) != r.Histogram("x", []float64{2}) {
		t.Error("Histogram not idempotent")
	}
}

func TestPromAndJSONDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("gemm_calls_total").Add(7)
	r.Gauge("backlog").Set(3.5)
	h := r.Histogram("lat_s", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var prom strings.Builder
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"# TYPE gemm_calls_total counter\ngemm_calls_total 7\n",
		"backlog 3.5",
		"lat_s_bucket{le=\"0.1\"} 1",
		"lat_s_bucket{le=\"1\"} 2",
		"lat_s_bucket{le=\"+Inf\"} 3",
		"lat_s_sum 5.55",
		"lat_s_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom dump missing %q:\n%s", want, out)
		}
	}

	var jsonOut strings.Builder
	if err := r.WriteJSON(&jsonOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonOut.String(), "\"gemm_calls_total\": 7") {
		t.Errorf("json dump missing counter:\n%s", jsonOut.String())
	}
}

// ServeDebug binds, answers /metrics and /debug/pprof/, and shuts down.
func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total").Inc()
	srv, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":      "up_total 1",
		"/metrics.json": "\"up_total\": 1",
		"/debug/vars":   "insitu_telemetry",
		"/debug/pprof/": "profiles",
	} {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: body missing %q", path, want)
		}
	}
}

// Labeled series built with Label must render sanitized label values
// and share ONE # TYPE line per base name in the exposition dump.
func TestLabeledSeries(t *testing.T) {
	if got := Label("fleet_uploads_total", "node", "3"); got != `fleet_uploads_total{node="3"}` {
		t.Fatalf("Label = %q", got)
	}
	if got := Label("m", "k", `a"b\c`); got != `m{k="a_b_c"}` {
		t.Fatalf("Label sanitizing = %q", got)
	}
	r := NewRegistry()
	r.Counter(Label("fleet_uploads_total", "node", "0")).Add(2)
	r.Counter(Label("fleet_uploads_total", "node", "1")).Add(5)
	r.Counter("other_total").Inc()
	var prom strings.Builder
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	if n := strings.Count(out, "# TYPE fleet_uploads_total counter"); n != 1 {
		t.Errorf("want exactly one TYPE line for the labeled family, got %d:\n%s", n, out)
	}
	for _, want := range []string{
		"fleet_uploads_total{node=\"0\"} 2\n",
		"fleet_uploads_total{node=\"1\"} 5\n",
		"# TYPE other_total counter\nother_total 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom dump missing %q:\n%s", want, out)
		}
	}
}
