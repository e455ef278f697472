package linalg

import "github.com/fragmd/fragmd/internal/par"

// gemmPacked executes C += alpha·op(A)·op(B) via the packed,
// register-blocked engine. Both operand transposes are folded into the
// packing step, so all four variants (NN/NT/TN/TT) reach the same
// orientation-free micro-kernel — the packed path has no variant spread
// by construction.
//
// Decomposition (Goto/BLIS): C is tiled into a 2D grid of mc×nc
// macro-tiles (sizes from the active kernelImpl). Each tile is an
// independent task — the parallel unit is the tile grid, not raw row
// ranges — and every task owns disjoint elements of C, so no
// synchronisation is needed beyond the final join. Within a task the
// inner dimension is swept in kc panels: pack A tile, pack B tile, then
// run the mr×nr micro-kernel over the packed panels.
//
// The micro-kernel itself is resolved once per call through
// activeKernel(): the CPU-specific assembly kernel when the feature
// detection installed one (and SetAsmEnabled/FRAGMD_NOASM has not
// disabled it), the portable Go kernel otherwise.
//
// beta is assumed already applied to C by the caller (Gemm does this
// before dispatch), and alpha must be non-zero.
func gemmPacked(tA, tB Transpose, alpha float64, a, b, c *Mat) {
	impl := activeKernel()
	kern := impl.f64
	m, n := c.Rows, c.Cols
	k := a.Cols
	if tA {
		k = a.Rows
	}

	nIC := (m + impl.mc - 1) / impl.mc
	nJC := (n + impl.nc - 1) / impl.nc

	task := func(tile int) {
		ic, jc := tile/nJC, tile%nJC
		i0 := ic * impl.mc
		mc := m - i0
		if mc > impl.mc {
			mc = impl.mc
		}
		j0 := jc * impl.nc
		nc := n - j0
		if nc > impl.nc {
			nc = impl.nc
		}

		buf := packPool.Get().(*packBuf)
		buf.a64 = growTo(buf.a64, impl.mc*impl.kc)
		buf.b64 = growTo(buf.b64, impl.kc*impl.nc)
		for l0 := 0; l0 < k; l0 += impl.kc {
			kc := k - l0
			if kc > impl.kc {
				kc = impl.kc
			}
			packAPanels(buf.a64, a, tA, i0, mc, l0, kc, impl.mr)
			packBPanels(buf.b64, b, tB, l0, kc, j0, nc, impl.nr)
			sweepTile(kern, buf.a64, buf.b64, kc, alpha, c, i0, j0, mc, nc, impl.mr, impl.nr)
		}
		packPool.Put(buf)
	}
	runTiles(nIC*nJC, int64(m)*int64(n)*int64(k), task)
}

// gemmPackedF32 is the mixed-precision packed engine: identical tiling
// and dispatch to gemmPacked, but the A and B panels are packed as
// float32 (halving the packing traffic and the cache footprint of the
// panels) while every accumulation stays float64 inside the kernel.
// C remains float64 end to end.
func gemmPackedF32(tA, tB Transpose, alpha float64, a, b, c *Mat) {
	impl := activeKernelF32()
	kern := impl.f32
	m, n := c.Rows, c.Cols
	k := a.Cols
	if tA {
		k = a.Rows
	}

	nIC := (m + impl.mc - 1) / impl.mc
	nJC := (n + impl.nc - 1) / impl.nc

	task := func(tile int) {
		ic, jc := tile/nJC, tile%nJC
		i0 := ic * impl.mc
		mc := m - i0
		if mc > impl.mc {
			mc = impl.mc
		}
		j0 := jc * impl.nc
		nc := n - j0
		if nc > impl.nc {
			nc = impl.nc
		}

		buf := packPool.Get().(*packBuf)
		buf.a32 = growTo(buf.a32, impl.mc*impl.kc)
		buf.b32 = growTo(buf.b32, impl.kc*impl.nc)
		for l0 := 0; l0 < k; l0 += impl.kc {
			kc := k - l0
			if kc > impl.kc {
				kc = impl.kc
			}
			packAPanels(buf.a32, a, tA, i0, mc, l0, kc, impl.mr)
			packBPanels(buf.b32, b, tB, l0, kc, j0, nc, impl.nr)
			sweepTile(kern, buf.a32, buf.b32, kc, alpha, c, i0, j0, mc, nc, impl.mr, impl.nr)
		}
		packPool.Put(buf)
	}
	runTiles(nIC*nJC, int64(m)*int64(n)*int64(k), task)
}

// sweepTile runs the micro-kernel over one packed macro-tile: A
// micro-panel outer, B micro-panel inner, so the kc×mr A panel stays
// L1-resident across the whole jp sweep while the narrower kc×nr B
// panels stream from L2 — half the cold traffic per micro-kernel call
// of the opposite nesting.
func sweepTile[T packElem](kern func(kc int, pa, pb []T, alpha float64, c *Mat, i0, j0, me, ne int),
	pa, pb []T, kc int, alpha float64, c *Mat, i0, j0, mc, nc, mr, nr int) {
	mPanels := (mc + mr - 1) / mr
	nPanels := (nc + nr - 1) / nr
	for ip := 0; ip < mPanels; ip++ {
		pap := pa[ip*kc*mr:]
		ii := i0 + ip*mr
		me := mc - ip*mr
		if me > mr {
			me = mr
		}
		for jp := 0; jp < nPanels; jp++ {
			ne := nc - jp*nr
			if ne > nr {
				ne = nr
			}
			kern(kc, pap, pb[jp*kc*nr:], alpha, c, ii, j0+jp*nr, me, ne)
		}
	}
}

// runTiles executes the tile tasks, fanning out through par when the
// problem is large enough to amortise goroutine start-up (same threshold
// as the streaming engine). Tiles own disjoint elements of C.
func runTiles(tiles int, work int64, task func(int)) {
	grain := tiles
	if work > parallelThreshold {
		grain = 1
	}
	par.For(tiles, grain, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			task(t)
		}
	})
}
