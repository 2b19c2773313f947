package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the persistent worker pool behind ParallelChunks
// and the parallel GEMM path. The old implementation spawned fresh
// goroutines on every call; here GOMAXPROCS-1 workers are started once
// and parked on a channel, and a parallel section hands them a pointer
// to a reusable job descriptor — no goroutine creation, no closure
// allocation for the kernel path, and dynamic load balancing via an
// atomic tile cursor.
//
// Exactly one parallel section is active at a time (guarded by a mutex
// taken with TryLock). A section that finds the pool busy — e.g. a GEMM
// issued from inside a ParallelChunks body — simply runs inline on the
// calling goroutine, which both avoids deadlock and prevents
// oversubscription of nested parallelism.

type workerPool struct {
	mu      sync.Mutex // serializes parallel sections; TryLock-miss → inline
	workers int        // background workers (0 on a single-core machine)
	wake    chan *parJob
	job     parJob // the single reusable job slot, owned under mu
}

// parJob describes one parallel section: tiles [0,tiles) are claimed by
// workers (and the submitting goroutine) through the atomic cursor and
// executed by runTile. runTile is always a top-level function reading the
// payload fields, so preparing a job performs no allocation.
type parJob struct {
	runTile func(j *parJob, tile int)
	cursor  atomic.Int64
	tiles   int
	wg      sync.WaitGroup

	g gemmJob // payload: parallel GEMM

	chunkWork func(chunk, i0, i1 int) // payload: ParallelChunks
	chunkSize int
	chunkN    int
}

func (j *parJob) drain() {
	for {
		t := int(j.cursor.Add(1)) - 1
		if t >= j.tiles {
			return
		}
		j.runTile(j, t)
	}
}

var (
	poolOnce sync.Once
	pool     *workerPool
)

func getPool() *workerPool {
	poolOnce.Do(func() {
		pool = newWorkerPool(runtime.GOMAXPROCS(0) - 1)
	})
	return pool
}

// newWorkerPool starts a pool with the given number of background
// workers. Tests construct private pools; everything else shares getPool.
func newWorkerPool(workers int) *workerPool {
	if workers < 0 {
		workers = 0
	}
	p := &workerPool{workers: workers}
	if workers > 0 {
		p.wake = make(chan *parJob, workers)
		for i := 0; i < workers; i++ {
			go p.worker()
		}
	}
	return p
}

func (p *workerPool) worker() {
	for j := range p.wake {
		j.drain()
		j.wg.Done()
	}
}

// close stops the background workers. Only used by tests on private
// pools; the shared pool lives for the process lifetime.
func (p *workerPool) close() {
	if p.wake != nil {
		close(p.wake)
	}
}

// dispatch runs the prepared job slot across the pool's workers plus the
// calling goroutine and waits for every claimed tile to finish. The
// caller must hold p.mu and have filled p.job.
func (p *workerPool) dispatch() {
	j := &p.job
	j.cursor.Store(0)
	n := p.workers
	if n > j.tiles-1 {
		n = j.tiles - 1
	}
	j.wg.Add(n)
	for i := 0; i < n; i++ {
		p.wake <- j
	}
	j.drain()
	j.wg.Wait()
}

// gemmPackTile and gemmComputeTile are the two parallel-GEMM sections:
// gemmOn dispatches one pack pass and one compute pass per kc slice, with
// the dispatch barrier between them ordering panel writes before reads.
func gemmPackTile(j *parJob, tile int)    { gemmPackUnit(&j.g, tile) }
func gemmComputeTile(j *parJob, tile int) { gemmTile(&j.g, tile) }

// ParallelChunks splits [0, n) into contiguous chunks and runs work on
// each, using the persistent worker pool. work receives the chunk index
// and its [i0, i1) range; chunk indices are dense in [0, chunks). It
// returns the number of chunks used, which is 1 when n is small or the
// pool has no workers (GOMAXPROCS=1).
//
// The partition depends on n and on the pool's size, which follows
// GOMAXPROCS; it never depends on whether the pool is free: a section
// that finds it busy runs the same chunks one after another on the
// caller. So a caller whose chunks share no state gets the same result
// at any GOMAXPROCS, but one that sums floats across chunks gets a
// different summation order, and different bits, on a different pool
// size. A result that must be worker-count invariant is reduced outside
// the section, in a fixed order.
func ParallelChunks(n int, work func(chunk, i0, i1 int)) int {
	return parallelChunksOn(getPool(), n, work)
}

func parallelChunksOn(p *workerPool, n int, work func(chunk, i0, i1 int)) int {
	if n <= 0 {
		return 1
	}
	chunks := p.workers + 1
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 {
		if s := kstats.Load(); s != nil {
			s.chunksInl.Add(1)
		}
		work(0, 0, n)
		return 1
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size
	if !p.mu.TryLock() {
		if s := kstats.Load(); s != nil {
			s.chunksInl.Add(int64(chunks))
		}
		for c := 0; c < chunks; c++ {
			work(c, c*size, min(n, (c+1)*size))
		}
		return chunks
	}
	if s := kstats.Load(); s != nil {
		s.chunksPar.Add(int64(chunks))
	}
	j := &p.job
	j.chunkWork = work
	j.chunkSize = size
	j.chunkN = n
	j.tiles = chunks
	j.runTile = chunkRunTile
	p.dispatch()
	j.chunkWork = nil
	p.mu.Unlock()
	return chunks
}

func chunkRunTile(j *parJob, t int) {
	i0 := t * j.chunkSize
	i1 := i0 + j.chunkSize
	if i1 > j.chunkN {
		i1 = j.chunkN
	}
	j.chunkWork(t, i0, i1)
}
