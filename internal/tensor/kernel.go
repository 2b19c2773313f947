package tensor

// This file implements the cache-blocked GEMM kernel behind the MatMul*
// API. The structure is the classic three-level blocking scheme (as in
// BLIS/GotoBLAS, scaled down for pure Go):
//
//   - The k dimension is walked in kcBlock slices. For each slice the
//     full A panel (m×kb) and B panel (kb×n) are packed ONCE into shared
//     micro-panel buffers — ⌈m/mr⌉ row panels and ⌈n/nr⌉ column panels,
//     zero-padded to full micro-tile width. Packing makes the inner
//     loops stream over contiguous memory regardless of transposition,
//     pushes all bounds/edge logic out of the hot loop, and — because
//     the panels are shared by every macro-tile — each operand element
//     is packed exactly once per slice instead of once per tile.
//   - Within a slice, C is cut into tileM×tileN macro-tiles; tiles are
//     disjoint in C, so they double as the unit of parallelism (2-D, so
//     both tall-narrow and short-wide problems split into enough tiles).
//     The packing itself is parallelized too, over tileM-row and
//     tileN-column blocks of the panel buffers.
//   - The micro-kernel multiplies one kb×mr A-panel by one kb×nr
//     B-panel, keeping the mr×nr accumulator block in registers, so each
//     loaded element is reused mr (resp. nr) times. The kernel is
//     selected at init by the CPU-feature probe (kernel_dispatch.go):
//     8×8 AVX2/FMA where available, and a pure-Go 4×8 kernel everywhere
//     else.
//
// Parallel partitioning policy: a GEMM with at least parallelGemmFlops
// multiply-adds and ≥2 macro-tiles takes the persistent worker pool's
// lock and, per kc slice, runs two pool sections — pack (units = A
// blocks then B blocks) and compute (units = macro-tiles) — with the
// dispatch barrier between them ordering packs before reads. The atomic
// tile cursor gives dynamic load balancing; a busy pool (nested GEMM) or
// a single-core host falls back to running the same units inline.
//
// Transposed operands are handled entirely in the packing step; the
// micro-kernel is oblivious. All scratch comes from Workspace pools, so
// steady-state calls do not allocate.

const (
	kcBlock = 256 // k-slice per packing round
	tileM   = 64  // macro-tile rows   (A block: tileM×kcBlock = 64 KiB)
	tileN   = 256 // macro-tile cols   (B block: kcBlock×tileN = 256 KiB)

	// Problems with fewer multiply-adds than this run the plain loops in
	// gemmSmall: below it, packing costs more than it saves.
	smallGemmFlops = 16 * 1024

	// Minimum multiply-adds before a gemm tries to go parallel.
	parallelGemmFlops = 1 << 17

	// maxMicroElems bounds mr·nr over every selectable micro-kernel; the
	// edge handler's stack buffer is sized by it (checked in useKernel).
	maxMicroElems = 64
)

// gemmJob carries one GEMM problem plus the blocking state of the kc
// slice currently executing. It is stored by value inside the worker
// pool's job slot so that parallel dispatch needs no allocation.
type gemmJob struct {
	c, a, b        []float32
	m, n, k        int
	lda, ldb       int
	transA, transB bool
	accumulate     bool
	tilesM, tilesN int // macro-tile grid

	// Current kc slice and the shared packed panels for it, valid only
	// inside gemmOn.
	p0, kb     int
	abuf, bbuf []float32
}

// packA and packB scratch. Two pools, because the two buffer sizes
// differ and a single pool would churn between them.
var (
	packAPool Workspace
	packBPool Workspace
)

// newGemmJob derives the blocking geometry for one GEMM problem.
func newGemmJob(c, a, b []float32, transA, transB bool, m, n, k int, accumulate bool) gemmJob {
	lda := k
	if transA {
		lda = m
	}
	ldb := n
	if transB {
		ldb = k
	}
	return gemmJob{
		c: c, a: a, b: b,
		m: m, n: n, k: k,
		lda: lda, ldb: ldb,
		transA: transA, transB: transB,
		accumulate: accumulate,
		tilesM:     (m + tileM - 1) / tileM,
		tilesN:     (n + tileN - 1) / tileN,
	}
}

// gemm computes C = op(A)·op(B) (or C += … when accumulate is set) for
// row-major operands. op(A) is m×k stored with leading dimension lda
// (k×m when transA), op(B) is k×n with leading dimension ldb (n×k when
// transB), and C is m×n.
func gemm(c, a, b []float32, transA, transB bool, m, n, k int, accumulate bool) {
	gemmFlopsEver.Add(2 * int64(m) * int64(n) * int64(k))
	// Skinny or tiny problems: blocking buys nothing, run plain loops.
	if m < mr || n < nr || k < 16 || m*n*k <= smallGemmFlops {
		lda := k
		if transA {
			lda = m
		}
		ldb := n
		if transB {
			ldb = k
		}
		if s := kstats.Load(); s != nil {
			s.gemmSmall.Add(1)
			s.gemmFlops.Add(2 * int64(m) * int64(n) * int64(k))
		}
		gemmSmall(c, a, b, transA, transB, m, n, k, lda, ldb, accumulate)
		return
	}
	if s := kstats.Load(); s != nil {
		s.gemmCalls.Add(1)
		s.gemmFlops.Add(2 * int64(m) * int64(n) * int64(k))
		// Packed panel footprint, counted once per logical GEMM (never
		// per worker tile, so the value is identical at any GOMAXPROCS):
		// every operand element is packed exactly once per kc slice,
		// padded to full micro-panels.
		mPad := (m + mr - 1) / mr * mr
		nPad := (n + nr - 1) / nr * nr
		s.packBytes.Add(4 * int64(k) * int64(mPad+nPad))
	}
	job := newGemmJob(c, a, b, transA, transB, m, n, k, accumulate)
	gemmOn(getPool(), &job)
}

// gemmOn executes a blocked GEMM job, using pool workers when the
// problem is large enough and the pool is free, inline otherwise. Tests
// pass private pools; everything else arrives here from gemm.
func gemmOn(p *workerPool, g *gemmJob) {
	mPanels := (g.m + mr - 1) / mr
	nPanels := (g.n + nr - 1) / nr
	ap := packAPool.GetSlice(mPanels * mr * kcBlock)
	bp := packBPool.GetSlice(nPanels * nr * kcBlock)
	g.abuf, g.bbuf = *ap, *bp
	tiles := g.tilesM * g.tilesN
	packUnits := g.tilesM + g.tilesN
	par := int64(g.m)*int64(g.n)*int64(g.k) >= parallelGemmFlops &&
		tiles >= 2 && p != nil && p.workers > 0 && p.mu.TryLock()
	if s := kstats.Load(); s != nil {
		if par {
			s.tilesPar.Add(int64(tiles))
		} else {
			s.tilesInl.Add(int64(tiles))
		}
	}
	for p0 := 0; p0 < g.k; p0 += kcBlock {
		g.p0 = p0
		g.kb = min(kcBlock, g.k-p0)
		if par {
			// Phase 1: pack this slice's panels. Phase 2: sweep the
			// macro-tiles. dispatch() is a barrier, so no tile reads a
			// panel before its packer finished.
			j := &p.job
			j.g = *g
			j.tiles = packUnits
			j.runTile = gemmPackTile
			p.dispatch()
			j.tiles = tiles
			j.runTile = gemmComputeTile
			p.dispatch()
		} else {
			for u := 0; u < packUnits; u++ {
				gemmPackUnit(g, u)
			}
			for t := 0; t < tiles; t++ {
				gemmTile(g, t)
			}
		}
	}
	if par {
		p.mu.Unlock()
	}
	g.abuf, g.bbuf = nil, nil
	packAPool.PutSlice(ap)
	packBPool.PutSlice(bp)
}

// gemmPackUnit packs one tileM-row block of A (units [0, tilesM)) or one
// tileN-column block of B (units [tilesM, tilesM+tilesN)) of the current
// kc slice into the shared panel buffers. Blocks are disjoint, so any
// number may run concurrently.
func gemmPackUnit(g *gemmJob, u int) {
	if u < g.tilesM {
		i0 := u * tileM
		mb := min(tileM, g.m-i0)
		packA(g.abuf[(i0/mr)*g.kb*mr:], g.a, g.lda, g.transA, i0, mb, g.p0, g.kb)
		return
	}
	j0 := (u - g.tilesM) * tileN
	nb := min(tileN, g.n-j0)
	packB(g.bbuf[(j0/nr)*g.kb*nr:], g.b, g.ldb, g.transB, g.p0, g.kb, j0, nb)
}

// gemmTile runs the micro-kernel sweep of one tileM×tileN macro-tile of
// C against the current slice's shared packed panels. Tiles are disjoint
// in C, so any number of them may run concurrently.
func gemmTile(g *gemmJob, tile int) {
	i0 := (tile / g.tilesN) * tileM
	i1 := min(i0+tileM, g.m)
	j0 := (tile % g.tilesN) * tileN
	j1 := min(j0+tileN, g.n)
	if g.p0 == 0 && !g.accumulate {
		for i := i0; i < i1; i++ {
			row := g.c[i*g.n+j0 : i*g.n+j1]
			for x := range row {
				row[x] = 0
			}
		}
	}
	kb := g.kb
	for jj := j0; jj < j1; jj += nr {
		bpan := g.bbuf[(jj/nr)*kb*nr:]
		nrem := j1 - jj
		for ii := i0; ii < i1; ii += mr {
			apan := g.abuf[(ii/mr)*kb*mr:]
			mrem := i1 - ii
			cc := g.c[ii*g.n+jj:]
			if mrem >= mr && nrem >= nr {
				microKernel(cc, g.n, apan, bpan, kb)
			} else {
				microKernelEdge(cc, g.n, apan, bpan, kb, mrem, nrem)
			}
		}
	}
}

// packA copies the mb×kb block of op(A) starting at row i0, depth p0 into
// dst as row micro-panels: dst[(ip·kb+p)·mr+ir] = op(A)[i0+ip·mr+ir, p0+p].
// Rows past mb are zero-filled so the micro-kernel never sees a ragged
// panel. i0 must be a multiple of mr (macro-tile boundaries are).
func packA(dst, a []float32, lda int, transA bool, i0, mb, p0, kb int) {
	mPanels := (mb + mr - 1) / mr
	for ip := 0; ip < mPanels; ip++ {
		d := dst[ip*kb*mr : (ip+1)*kb*mr]
		ii := i0 + ip*mr
		h := min(mb-ip*mr, mr)
		if !transA {
			// A is m×k: logical row i is contiguous in memory.
			for ir := 0; ir < h; ir++ {
				src := a[(ii+ir)*lda+p0:]
				for p := 0; p < kb; p++ {
					d[p*mr+ir] = src[p]
				}
			}
			for ir := h; ir < mr; ir++ {
				for p := 0; p < kb; p++ {
					d[p*mr+ir] = 0
				}
			}
		} else {
			// A is k×m: depth p is contiguous in memory.
			for p := 0; p < kb; p++ {
				src := a[(p0+p)*lda+ii:]
				dp := d[p*mr : p*mr+mr]
				if h == mr {
					src = src[:mr]
					for ir := range dp {
						dp[ir] = src[ir]
					}
				} else {
					for ir := 0; ir < h; ir++ {
						dp[ir] = src[ir]
					}
					for ir := h; ir < mr; ir++ {
						dp[ir] = 0
					}
				}
			}
		}
	}
}

// packB copies the kb×nb block of op(B) starting at depth p0, column j0
// into dst as column micro-panels: dst[(jp·kb+p)·nr+jr] =
// op(B)[p0+p, j0+jp·nr+jr], zero-padding columns past nb. j0 must be a
// multiple of nr (macro-tile boundaries are).
func packB(dst, b []float32, ldb int, transB bool, p0, kb, j0, nb int) {
	nPanels := (nb + nr - 1) / nr
	for jp := 0; jp < nPanels; jp++ {
		d := dst[jp*kb*nr : (jp+1)*kb*nr]
		jj := j0 + jp*nr
		w := min(nb-jp*nr, nr)
		if !transB {
			// B is k×n: depth p is contiguous in memory.
			for p := 0; p < kb; p++ {
				src := b[(p0+p)*ldb+jj:]
				dp := d[p*nr : p*nr+nr]
				if w == nr {
					copy(dp, src[:nr])
				} else {
					for jr := 0; jr < w; jr++ {
						dp[jr] = src[jr]
					}
					for jr := w; jr < nr; jr++ {
						dp[jr] = 0
					}
				}
			}
		} else {
			// B is n×k: logical column j is contiguous in memory.
			for jr := 0; jr < w; jr++ {
				src := b[(jj+jr)*ldb+p0:]
				for p := 0; p < kb; p++ {
					d[p*nr+jr] = src[p]
				}
			}
			for jr := w; jr < nr; jr++ {
				for p := 0; p < kb; p++ {
					d[p*nr+jr] = 0
				}
			}
		}
	}
}

// microKernelEdge handles partial tiles at the right/bottom fringe: the
// panels are zero-padded, so the full product lands in a stack buffer and
// only the valid mrem×nrem corner is added into C.
func microKernelEdge(c []float32, ldc int, ap, bp []float32, kb, mrem, nrem int) {
	var tmp [maxMicroElems]float32
	microKernel(tmp[:mr*nr], nr, ap, bp, kb)
	if mrem > mr {
		mrem = mr
	}
	if nrem > nr {
		nrem = nr
	}
	for i := 0; i < mrem; i++ {
		ci := c[i*ldc:]
		ti := tmp[i*nr:]
		for j := 0; j < nrem; j++ {
			ci[j] += ti[j]
		}
	}
}

// gemmSmall is the unblocked path for problems too small (or too skinny)
// to amortize packing. Loop order is chosen per transpose case so the
// innermost loop always streams over contiguous memory.
func gemmSmall(c, a, b []float32, transA, transB bool, m, n, k, lda, ldb int, accumulate bool) {
	if !accumulate {
		cc := c[:m*n]
		for i := range cc {
			cc[i] = 0
		}
	}
	switch {
	case !transA && !transB:
		for i := 0; i < m; i++ {
			ci := c[i*n : (i+1)*n]
			ai := a[i*lda : i*lda+k]
			for p, av := range ai {
				bp := b[p*ldb : p*ldb+n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	case transA && !transB:
		// A is k×m: walk depth in the outer loop so both operand rows
		// are contiguous.
		for p := 0; p < k; p++ {
			ap := a[p*lda : p*lda+m]
			bp := b[p*ldb : p*ldb+n]
			for i, av := range ap {
				ci := c[i*n : (i+1)*n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	case !transA && transB:
		// B is n×k: dot products of contiguous rows.
		for i := 0; i < m; i++ {
			ai := a[i*lda : i*lda+k]
			ci := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b[j*ldb : j*ldb+k]
				var s float32
				for p, av := range ai {
					s += av * bj[p]
				}
				ci[j] += s
			}
		}
	default: // transA && transB — unused by the public API, kept for completeness
		for p := 0; p < k; p++ {
			ap := a[p*lda : p*lda+m]
			for i, av := range ap {
				ci := c[i*n : (i+1)*n]
				for j := 0; j < n; j++ {
					ci[j] += av * b[j*ldb+p]
				}
			}
		}
	}
}
