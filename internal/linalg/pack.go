package linalg

import "sync"

// The packed GEMM path (gemm_packed.go) follows the classic Goto/BLIS
// decomposition: C is tiled into mc×nc macro-tiles, the inner dimension
// is split into kc panels sized so one packed A panel (mc×kc) and one
// packed B panel (kc×nc) stay resident in cache while the register
// micro-kernel sweeps them. The blocking parameters and the register
// shape (mr×nr) live on the kernelImpl (kernel.go): the portable kernel
// packs 4×2 micro-panels, the AVX2 kernel 6×8, the NEON kernel 8×4 —
// the pack routines below take the shape as arguments so one packing
// implementation serves every kernel.

// packBuf holds one worker's packing scratch, grown on demand to the
// active kernel's macro-tile sizes.
type packBuf struct {
	a, b []float64
}

var packPool = sync.Pool{New: func() interface{} { return new(packBuf) }}

// growTo returns s with length ≥ n, reallocating only when capacity is
// insufficient (pool buffers are reused across kernels with different
// blocking, so the first call per size class allocates).
func growTo(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// packAPanels packs op(A)[i0:i0+mc, l0:l0+kc] into dst as ceil(mc/mr)
// row micro-panels. Panel ip occupies dst[ip*kc*mr : (ip+1)*kc*mr] with
// layout dst[l*mr+r] = op(A)(i0+ip*mr+r, l0+l); rows beyond mc are
// zero-padded so the micro-kernel never needs a row mask. The transpose
// is folded into the pack: after packing, the kernel is
// orientation-free.
func packAPanels(dst []float64, a *Mat, tA Transpose, i0, mc, l0, kc, mr int) {
	panels := (mc + mr - 1) / mr
	if tA {
		// op(A)(i,l) = A[l,i]: each k-step reads mr contiguous elements
		// of one source row — the cheap direction.
		for ip := 0; ip < panels; ip++ {
			base := ip * kc * mr
			i := i0 + ip*mr
			rows := mc - ip*mr
			if rows > mr {
				rows = mr
			}
			for l := 0; l < kc; l++ {
				src := a.Row(l0 + l)
				d := dst[base+l*mr : base+l*mr+mr]
				for r := 0; r < rows; r++ {
					d[r] = src[i+r]
				}
				for r := rows; r < mr; r++ {
					d[r] = 0
				}
			}
		}
		return
	}
	// op(A)(i,l) = A[i,l]: interleave mr source rows. Each source row is
	// a sequential read stream; the strided writes stay inside the
	// L1-resident panel. Packing is a visible cost on tall-skinny shapes
	// (O(mk) against O(mnk) with small n), so rows are swept one at a
	// time with the bounds hoisted instead of per-element 2D indexing.
	for ip := 0; ip < panels; ip++ {
		base := ip * kc * mr
		i := i0 + ip*mr
		rows := mc - ip*mr
		if rows > mr {
			rows = mr
		}
		for r := 0; r < rows; r++ {
			src := a.Row(i + r)[l0 : l0+kc]
			d := dst[base+r : base+(kc-1)*mr+r+1]
			for l, v := range src {
				d[l*mr] = v
			}
		}
		for r := rows; r < mr; r++ {
			d := dst[base+r : base+(kc-1)*mr+r+1]
			for l := 0; l < kc; l++ {
				d[l*mr] = 0
			}
		}
	}
}

// packBPanels packs op(B)[l0:l0+kc, j0:j0+nc] into dst as ceil(nc/nr)
// column micro-panels. Panel jp occupies dst[jp*kc*nr : (jp+1)*kc*nr]
// with layout dst[l*nr+s] = op(B)(l0+l, j0+jp*nr+s); columns beyond nc
// are zero-padded. As with packAPanels, the transpose is folded into
// the pack.
func packBPanels(dst []float64, b *Mat, tB Transpose, l0, kc, j0, nc, nr int) {
	panels := (nc + nr - 1) / nr
	if !tB {
		// op(B)(l,j) = B[l,j]: each k-step reads nr contiguous elements.
		for jp := 0; jp < panels; jp++ {
			base := jp * kc * nr
			j := j0 + jp*nr
			cols := nc - jp*nr
			if cols >= nr {
				// Full-width panel: contiguous nr-element copies.
				for l := 0; l < kc; l++ {
					src := b.Row(l0 + l)[j : j+nr]
					d := dst[base+l*nr : base+l*nr+nr]
					copy(d, src)
				}
				continue
			}
			for l := 0; l < kc; l++ {
				src := b.Row(l0 + l)
				d := dst[base+l*nr : base+l*nr+nr]
				for s := 0; s < cols; s++ {
					d[s] = src[j+s]
				}
				for s := cols; s < nr; s++ {
					d[s] = 0
				}
			}
		}
		return
	}
	// op(B)(l,j) = B[j,l]: interleave nr source rows, one sequential
	// read stream per column of the panel.
	for jp := 0; jp < panels; jp++ {
		base := jp * kc * nr
		j := j0 + jp*nr
		cols := nc - jp*nr
		if cols > nr {
			cols = nr
		}
		for s := 0; s < cols; s++ {
			src := b.Row(j + s)[l0 : l0+kc]
			d := dst[base+s : base+(kc-1)*nr+s+1]
			for l, v := range src {
				d[l*nr] = v
			}
		}
		for s := cols; s < nr; s++ {
			d := dst[base+s : base+(kc-1)*nr+s+1]
			for l := 0; l < kc; l++ {
				d[l*nr] = 0
			}
		}
	}
}
