package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
)

// close stops a private pool's background workers; the shared pool lives
// for the process lifetime.
func (p *workerPool) close() {
	if p.wake != nil {
		close(p.wake)
	}
}

func TestParallelChunksCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 17, 100} {
		var mu sync.Mutex
		covered := make([]int, n)
		seen := map[int]bool{}
		chunks := ParallelChunks(n, func(chunk, i0, i1 int) {
			mu.Lock()
			defer mu.Unlock()
			seen[chunk] = true
			if i0 < 0 || i1 > n || i0 >= i1 {
				t.Errorf("n=%d: bad chunk range [%d,%d)", n, i0, i1)
			}
			for i := i0; i < i1; i++ {
				covered[i]++
			}
		})
		if n == 0 {
			if chunks != 1 {
				t.Errorf("n=0: chunks = %d, want 1", chunks)
			}
			continue
		}
		for i, c := range covered {
			if c != 1 {
				t.Errorf("n=%d: index %d covered %d times", n, i, c)
			}
		}
		for c := range seen {
			if c < 0 || c >= chunks {
				t.Errorf("n=%d: chunk index %d outside [0,%d)", n, c, chunks)
			}
		}
		if len(seen) != chunks {
			t.Errorf("n=%d: %d distinct chunk indices, reported %d", n, len(seen), chunks)
		}
	}
}

// Exercise the multi-worker dispatch path on a private pool regardless of
// the machine's core count (the shared pool has zero workers on a
// single-core host).
func TestParallelChunksOnPoolWorkers(t *testing.T) {
	p := newWorkerPool(3)
	defer p.close()
	const n = 1000
	counts := make([]atomic.Int32, n)
	chunks := parallelChunksOn(p, n, func(chunk, i0, i1 int) {
		for i := i0; i < i1; i++ {
			counts[i].Add(1)
		}
	})
	if chunks != 4 {
		t.Errorf("chunks = %d, want 4 (3 workers + caller)", chunks)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

// A parallel section issued from inside another parallel section must run
// inline (pool busy) rather than deadlock, and must still cut its range
// into the chunks a free pool would use, so per-chunk partials do not
// depend on whether the pool was busy.
func TestParallelChunksNestedRunsInline(t *testing.T) {
	p := newWorkerPool(3)
	defer p.close()
	free := parallelChunksOn(p, 10, func(_, _, _ int) {})
	var outerCalls atomic.Int32
	var innerChunks atomic.Int32
	var total atomic.Int32
	parallelChunksOn(p, 8, func(chunk, i0, i1 int) {
		outerCalls.Add(1)
		// Appended without a lock: the inner chunks must run one after
		// another on this goroutine, in chunk order.
		var order []int
		c := parallelChunksOn(p, 10, func(ic, j0, j1 int) {
			order = append(order, ic)
			total.Add(int32(j1 - j0))
		})
		innerChunks.Add(int32(c))
		for k, ic := range order {
			if ic != k {
				t.Errorf("inner chunks ran in order %v, want 0..%d", order, c-1)
				break
			}
		}
	})
	// Every inner call must have used the free pool's partition, so the
	// inner-chunk sum equals that count times the number of outer
	// invocations and each inner section still covers its full range.
	outer := outerCalls.Load()
	if got := innerChunks.Load(); got != outer*int32(free) {
		t.Errorf("sum of inner chunk counts = %d, want %d (%d per busy section)", got, outer*int32(free), free)
	}
	if got := total.Load(); got != outer*10 {
		t.Errorf("inner work covered %d indices, want %d", got, outer*10)
	}
}

// Drive the parallel GEMM tile path through a private multi-worker pool
// and check it against the naive reference (also under -race).
func TestGemmParallelMatchesNaive(t *testing.T) {
	p := newWorkerPool(4)
	defer p.close()
	r := NewRNG(41)
	for _, dims := range [][3]int{{129, 70, 300}, {64, 256, 520}, {300, 129, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := New(m, k)
		b := New(k, n)
		a.FillNormal(r, 0, 1)
		b.FillNormal(r, 0, 1)
		c := New(m, n)
		job := newGemmJob(c.Data, a.Data, b.Data, false, false, m, n, k, false)
		if tiles := job.tilesM * job.tilesN; tiles < 2 {
			t.Fatalf("test shape m=%d n=%d yields %d tile(s); want ≥2", m, n, tiles)
		}
		gemmOn(p, &job)
		if !closeEnough(c, naiveMatMul(a, b), 2e-3) {
			t.Fatalf("parallel gemm mismatch at m=%d k=%d n=%d", m, k, n)
		}
	}
}
