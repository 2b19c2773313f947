package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Window is a rolling-window histogram: a ring of sub-histogram slots,
// each covering span/slots of wall time, merged on read. Observations
// land in the current slot through the same lock-free atomic path as
// Histogram.Observe; the only lock is taken on slot rotation (once per
// slot duration) and never on the steady-state hot path. Reading merges
// the live slots into one HistogramSnapshot, so quantiles and rates
// reflect roughly the last `span` of activity instead of the process
// lifetime — the signal the fleet health plane verdicts on.
//
// All methods are no-ops (or zero values) on a nil receiver, matching
// the rest of the package.
type Window struct {
	bounds []float64
	slotNs int64
	slots  []windowSlot

	// now returns monotonic nanoseconds; tests replace it (and reset
	// start) to drive rotation deterministically.
	now func() int64

	mu    sync.Mutex   // serializes rotation only
	cur   atomic.Int64 // index of the slot currently receiving samples
	start atomic.Int64 // now() at which the current slot opened
}

// windowSlot is one ring entry: the atomic core of a histogram.
type windowSlot struct {
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

func (s *windowSlot) clear() {
	for i := range s.buckets {
		s.buckets[i].Store(0)
	}
	s.count.Store(0)
	s.sumBits.Store(0)
}

// windowEpoch anchors the package's monotonic clock; time.Since reads
// the monotonic component, so rotation is immune to wall-clock jumps.
var windowEpoch = time.Now()

func monotonicNanos() int64 { return int64(time.Since(windowEpoch)) }

// NewWindow builds a rolling window covering `span`, sliced into
// `slots` sub-histograms with the given upper bucket bounds (sorted;
// an implicit +Inf bucket catches the rest). span/slots is the
// rotation granularity: the window's effective coverage slides in
// steps of that size.
func NewWindow(bounds []float64, span time.Duration, slots int) *Window {
	if slots < 2 {
		slots = 2
	}
	if span <= 0 {
		span = time.Minute
	}
	h := newHistogram(bounds) // reuse bound sorting/copying
	w := &Window{
		bounds: h.bounds,
		slotNs: int64(span) / int64(slots),
		slots:  make([]windowSlot, slots),
		now:    monotonicNanos,
	}
	if w.slotNs < 1 {
		w.slotNs = 1
	}
	for i := range w.slots {
		w.slots[i].buckets = make([]atomic.Int64, len(w.bounds)+1)
	}
	w.start.Store(w.now())
	return w
}

// Observe records one sample into the current slot. No-op on nil.
func (w *Window) Observe(v float64) {
	if w == nil {
		return
	}
	w.maybeRotate(w.now())
	s := &w.slots[w.cur.Load()]
	i := 0
	for i < len(w.bounds) && v > w.bounds[i] {
		i++
	}
	s.buckets[i].Add(1)
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// maybeRotate advances the ring when the current slot's time is up,
// clearing every slot the clock skipped. The fast path is two atomic
// loads; the lock is only taken when a rotation is actually due.
func (w *Window) maybeRotate(t int64) {
	if t-w.start.Load() < w.slotNs {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.start.Load()
	steps := (t - start) / w.slotNs
	if steps <= 0 {
		return // another goroutine rotated while we waited on the lock
	}
	n := int64(len(w.slots))
	if steps >= n {
		// The whole window aged out: clear everything and re-anchor the
		// slot grid at t.
		for i := range w.slots {
			w.slots[i].clear()
		}
		w.cur.Store(0)
		w.start.Store(t)
		return
	}
	cur := w.cur.Load()
	for i := int64(1); i <= steps; i++ {
		w.slots[(cur+i)%n].clear()
	}
	w.cur.Store((cur + steps) % n)
	w.start.Store(start + steps*w.slotNs)
}

// Snapshot merges the live slots into one HistogramSnapshot covering
// roughly the last span of observations. Zero value on a nil receiver.
func (w *Window) Snapshot() HistogramSnapshot {
	if w == nil {
		return HistogramSnapshot{}
	}
	w.maybeRotate(w.now())
	snap := HistogramSnapshot{
		Bounds:  append([]float64(nil), w.bounds...),
		Buckets: make([]int64, len(w.bounds)+1),
	}
	for si := range w.slots {
		s := &w.slots[si]
		for bi := range s.buckets {
			snap.Buckets[bi] += s.buckets[bi].Load()
		}
		snap.Count += s.count.Load()
		snap.Sum += math.Float64frombits(s.sumBits.Load())
	}
	return snap
}

// Quantile estimates the q-quantile of the windowed observations; see
// HistogramSnapshot.Quantile for the interpolation rules.
func (w *Window) Quantile(q float64) float64 {
	return w.Snapshot().Quantile(q)
}

// restore loads a merged snapshot into the window's current slot (used
// by Registry.LoadSnapshot when resuming from a checkpoint: slot
// attribution inside the old window is gone, but counts and quantile
// mass survive).
func (w *Window) restore(s HistogramSnapshot) {
	if w == nil || len(s.Buckets) != len(w.bounds)+1 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.slots {
		w.slots[i].clear()
	}
	w.cur.Store(0)
	w.start.Store(w.now())
	slot := &w.slots[0]
	for i, c := range s.Buckets {
		slot.buckets[i].Store(c)
	}
	slot.count.Store(s.Count)
	slot.sumBits.Store(math.Float64bits(s.Sum))
}

// Quantile estimates the q-quantile (q in [0,1]) from the snapshot's
// cumulative buckets with linear interpolation inside the landing
// bucket, Prometheus-style: the first bucket interpolates from 0, and
// a rank landing in the +Inf bucket reports the last finite bound (the
// histogram cannot see past it). Returns 0 on an empty snapshot. The
// estimate is monotone in q.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || len(s.Bounds) == 0 || len(s.Buckets) != len(s.Bounds)+1 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Buckets {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i == len(s.Bounds) {
			// +Inf bucket: no finite upper edge to interpolate toward.
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lower + (upper-lower)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}
