package telemetry

import (
	"math"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock drives Window rotation deterministically from a test.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() int64      { return c.ns.Load() }
func (c *fakeClock) advance(d int64) { c.ns.Add(d) }
func newTestWindow(bounds []float64, span time.Duration, slots int) (*Window, *fakeClock) {
	w := NewWindow(bounds, span, slots)
	c := &fakeClock{}
	w.now = c.now
	w.start.Store(c.now())
	return w, c
}

// Observations must age out of the window slot by slot: after a full
// span of silence the merged view is empty again.
func TestWindowRotationAgesOutSamples(t *testing.T) {
	w, clock := newTestWindow([]float64{1, 10}, 4*time.Second, 4)
	for i := 0; i < 8; i++ {
		w.Observe(0.5)
	}
	if got := w.Snapshot().Count; got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
	// Advance one slot: samples remain (they live in an older slot).
	clock.advance(int64(time.Second))
	w.Observe(5)
	if got := w.Snapshot().Count; got != 9 {
		t.Fatalf("after 1 slot: count = %d, want 9", got)
	}
	// Advance past the whole span: everything ages out.
	clock.advance(int64(5 * time.Second))
	if got := w.Snapshot().Count; got != 0 {
		t.Fatalf("after full span: count = %d, want 0", got)
	}
	if q := w.Quantile(0.99); q != 0 {
		t.Fatalf("empty window quantile = %g, want 0", q)
	}
	// And the window keeps working after a full reset.
	w.Observe(0.5)
	if got := w.Snapshot().Count; got != 1 {
		t.Fatalf("post-reset count = %d, want 1", got)
	}
}

// Partial aging: only the slots the clock skipped are cleared.
func TestWindowPartialRotation(t *testing.T) {
	w, clock := newTestWindow([]float64{1}, 4*time.Second, 4)
	w.Observe(0.1) // slot 0
	clock.advance(int64(time.Second))
	w.Observe(0.1) // slot 1
	clock.advance(int64(time.Second))
	w.Observe(0.1) // slot 2
	if got := w.Snapshot().Count; got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	// Two more slots: slot 0's sample (and the empty slot 3) age out,
	// slots 1-2 survive.
	clock.advance(int64(2 * time.Second))
	if got := w.Snapshot().Count; got != 2 {
		t.Fatalf("after partial rotation: count = %d, want 2", got)
	}
}

// The concurrency hammer: many writers observing while readers merge
// and a dedicated goroutine drives rotation through a shared clock.
// Run under -race via make race / the CI race job. Totals cannot be
// asserted exactly (rotation discards by design) — the properties are
// no data races, no lost updates within a quiet window, and internally
// consistent merges.
func TestWindowConcurrentObserveAndMerge(t *testing.T) {
	w, clock := newTestWindow(ExpBuckets(0.001, 10, 6), time.Minute, 6)
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Rotator: advances the clock by sub-slot steps so rotation happens,
	// capped at 30s total so the 1-min window never ages samples out
	// mid-test.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30000; i++ {
			select {
			case <-stop:
				return
			default:
				clock.advance(int64(time.Millisecond))
			}
		}
		<-stop
	}()
	// Readers: merge continuously, checking internal consistency.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s := w.Snapshot()
					var sum int64
					for _, c := range s.Buckets {
						if c < 0 {
							t.Error("negative bucket count in merged snapshot")
							return
						}
						sum += c
					}
					// Buckets and count are read without a global lock, so
					// a merge racing writers sees them slightly apart; both
					// must stay within what has actually been written.
					if sum > writers*perWriter || s.Count > writers*perWriter {
						t.Errorf("merged snapshot invented samples: sum=%d count=%d", sum, s.Count)
						return
					}
					_ = s.Quantile(0.99)
				}
			}
		}()
	}
	var writersWG sync.WaitGroup
	for i := 0; i < writers; i++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < perWriter; j++ {
				w.Observe(rng.Float64())
			}
		}(int64(i))
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()
	// The clock advanced < 1 slot duration per rotation check in total?
	// Not guaranteed — but it cannot exceed the full span within this
	// test's runtime budget, so nothing has aged out.
	if got := w.Snapshot().Count; got != writers*perWriter {
		t.Fatalf("count = %d, want %d (nothing should age out of a 1-min window)", got, writers*perWriter)
	}
}

// Quantile must be monotone in q (q1 ≤ q2 ⇒ Quantile(q1) ≤ Quantile(q2))
// and clamped inside the landing bucket, across randomized histograms.
func TestQuantileMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nb := 1 + rng.Intn(12)
		bounds := make([]float64, nb)
		v := rng.Float64()
		for i := range bounds {
			bounds[i] = v
			v += 0.01 + rng.Float64()*10
		}
		h := newHistogram(bounds)
		n := rng.Intn(500)
		for i := 0; i < n; i++ {
			h.Observe(rng.Float64() * bounds[nb-1] * 1.2)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.01 {
			cur := h.snapshot().Quantile(q)
			if cur < prev {
				t.Fatalf("trial %d: Quantile(%g)=%g < Quantile(prev)=%g", trial, q, cur, prev)
			}
			if n > 0 && (cur < 0 || cur > bounds[nb-1]) {
				t.Fatalf("trial %d: Quantile(%g)=%g outside [0,%g]", trial, q, cur, bounds[nb-1])
			}
			prev = cur
		}
	}
}

// Spot-check the interpolation against a known distribution.
func TestQuantileInterpolation(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i % 30)) // roughly uniform over (0,30]
	}
	p50 := h.snapshot().Quantile(0.5)
	if p50 < 10 || p50 > 20 {
		t.Errorf("p50 = %g, want within (10,20)", p50)
	}
	p99 := h.snapshot().Quantile(0.99)
	if p99 < 20 || p99 > 30 {
		t.Errorf("p99 = %g, want within (20,30]", p99)
	}
	if h.snapshot().Quantile(0) > h.snapshot().Quantile(1) {
		t.Error("q=0 above q=1")
	}
}

// Windows registered on a Registry must show up in Snapshot/WriteProm
// and answer quantiles through the merged snapshot.
func TestRegistryWindowExposition(t *testing.T) {
	r := NewRegistry()
	w := r.Window("admit_latency_seconds", []float64{0.1, 1}, time.Minute, 4)
	if w2 := r.Window("admit_latency_seconds", nil, time.Second, 2); w2 != w {
		t.Fatal("Window not idempotent")
	}
	w.Observe(0.05)
	w.Observe(0.5)
	w.Observe(5)

	s := r.Snapshot()
	ws, ok := s.Windows["admit_latency_seconds"]
	if !ok || ws.Count != 3 {
		t.Fatalf("window snapshot = %+v ok=%v", ws, ok)
	}
	var prom strings.Builder
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"# TYPE admit_latency_seconds histogram",
		"admit_latency_seconds_bucket{le=\"0.1\"} 1",
		"admit_latency_seconds_bucket{le=\"+Inf\"} 3",
		"admit_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom dump missing %q:\n%s", want, out)
		}
	}
	var nilReg *Registry
	if nilReg.Window("x", nil, time.Second, 2) != nil {
		t.Fatal("nil registry returned non-nil window")
	}
	var nilWin *Window
	nilWin.Observe(1) // must not panic
	if nilWin.Snapshot().Count != 0 || nilWin.Quantile(0.5) != 0 {
		t.Fatal("nil window reported data")
	}
}

// A snapshot restored with LoadSnapshot must preserve histogram bucket
// counts — the fix that lets fleet checkpoint/resume keep percentile
// state instead of flattening every histogram to Count/Sum.
func TestSnapshotRestorePreservesPercentiles(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total").Add(41)
	r.Gauge("level").Set(2.5)
	h := r.Histogram("lat_s", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	w := r.Window("win_s", []float64{1, 10}, time.Minute, 4)
	w.Observe(0.5)
	w.Observe(5)
	snap := r.Snapshot()

	r2 := NewRegistry()
	// Pre-register the window (geometry is not in the snapshot).
	r2.Window("win_s", []float64{1, 10}, time.Minute, 4)
	r2.LoadSnapshot(snap)
	if got := r2.Counter("ops_total").Value(); got != 41 {
		t.Errorf("counter = %d, want 41", got)
	}
	if got := r2.Gauge("level").Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
	h2 := r2.Histogram("lat_s", nil)
	if h2.Count() != 5 {
		t.Fatalf("restored count = %d, want 5", h2.Count())
	}
	wantBuckets := h.BucketCounts()
	gotBuckets := h2.BucketCounts()
	for i := range wantBuckets {
		if gotBuckets[i] != wantBuckets[i] {
			t.Fatalf("restored buckets = %v, want %v", gotBuckets, wantBuckets)
		}
	}
	if q, want := h2.snapshot().Quantile(0.5), h.snapshot().Quantile(0.5); q != want {
		t.Errorf("restored p50 = %g, want %g", q, want)
	}
	if got := r2.Window("win_s", nil, 0, 0).Snapshot().Count; got != 2 {
		t.Errorf("restored window count = %d, want 2", got)
	}
	// Restoring into a fresh registry without the window pre-registered
	// must not panic; the window entry is simply skipped.
	NewRegistry().LoadSnapshot(snap)
}

// promLine matches one sample line of the text exposition format with
// an optional single label pair.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"{}\\]*"(,le="[^"]*")?\})? [^ ]+$`)

// Hostile label values must never produce a malformed exposition line:
// the sanitize-then-render round trip always parses.
func TestLabelSanitizeRoundTrip(t *testing.T) {
	hostile := []string{
		`plain`,
		`has"quote`,
		"new\nline",
		`back\slash`,
		`close}brace{open`,
		`a="1"} evil_metric 9`,
		strings.Repeat("x", 5000),
	}
	r := NewRegistry()
	for i, v := range hostile {
		r.Counter(Label("fleet_node_test_total", "node", v)).Add(int64(i + 1))
		r.Gauge(Label("fleet_node_test_gauge", "node", v)).Set(float64(i))
	}
	var prom strings.Builder
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(prom.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
		if len(line) > MaxLabelValueLen+100 {
			t.Errorf("line exceeds label cap: %d bytes", len(line))
		}
		// The injection attempt must stay confined inside its quoted
		// label value — it must never open a line as its own series.
		if strings.HasPrefix(line, "evil_metric") {
			t.Errorf("label value smuggled a fake sample line: %q", line)
		}
	}
}
