package linalg

// microKernel4x2 computes the mr×nr register block
//
//	C[i0:i0+me, j0:j0+ne] += alpha · Ap·Bp
//
// where Ap is one packed A micro-panel (kc×4, k-major, see packAPanels)
// and Bp one packed B micro-panel (kc×2, see packBPanels).
//
// The register shape is 4×2 with the k loop unrolled ×4: 8 accumulators
// plus 6 live operands fit the 16 scalar FP registers of amd64/arm64
// without spilling, which measures ~2.3× faster than either a 4×4 block
// (16 accumulators spill) or the streaming loops. The slice-advance
// iteration style (pa = pa[16:]) is deliberate — it lets the compiler
// prove bounds once per unrolled step, where an index-arithmetic loop
// re-checks every load. Padding rows/columns in the panels are zero, so
// the accumulation loop is unconditional; only the write-back is masked
// to me×ne.
func microKernel4x2(kc int, pa, pb []float64, alpha float64, c *Mat, i0, j0, me, ne int) {
	const mr, nr = 4, 2
	var c00, c01 float64
	var c10, c11 float64
	var c20, c21 float64
	var c30, c31 float64

	pa = pa[: kc*mr : kc*mr]
	pb = pb[: kc*nr : kc*nr]
	for len(pa) >= 4*mr && len(pb) >= 4*nr {
		a0, a1, a2, a3 := pa[0], pa[1], pa[2], pa[3]
		b0, b1 := pb[0], pb[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1

		a0, a1, a2, a3 = pa[4], pa[5], pa[6], pa[7]
		b0, b1 = pb[2], pb[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1

		a0, a1, a2, a3 = pa[8], pa[9], pa[10], pa[11]
		b0, b1 = pb[4], pb[5]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1

		a0, a1, a2, a3 = pa[12], pa[13], pa[14], pa[15]
		b0, b1 = pb[6], pb[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1

		pa = pa[4*mr:]
		pb = pb[4*nr:]
	}
	for len(pa) >= mr && len(pb) >= nr {
		a0, a1, a2, a3 := pa[0], pa[1], pa[2], pa[3]
		b0, b1 := pb[0], pb[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		pa = pa[mr:]
		pb = pb[nr:]
	}

	if me == mr && ne == nr {
		r0 := c.Row(i0)[j0 : j0+nr]
		r0[0] += alpha * c00
		r0[1] += alpha * c01
		r1 := c.Row(i0 + 1)[j0 : j0+nr]
		r1[0] += alpha * c10
		r1[1] += alpha * c11
		r2 := c.Row(i0 + 2)[j0 : j0+nr]
		r2[0] += alpha * c20
		r2[1] += alpha * c21
		r3 := c.Row(i0 + 3)[j0 : j0+nr]
		r3[0] += alpha * c30
		r3[1] += alpha * c31
		return
	}

	// Edge tile: masked write-back of the valid me×ne corner.
	var acc [mr][nr]float64
	acc[0] = [nr]float64{c00, c01}
	acc[1] = [nr]float64{c10, c11}
	acc[2] = [nr]float64{c20, c21}
	acc[3] = [nr]float64{c30, c31}
	for r := 0; r < me; r++ {
		row := c.Row(i0 + r)
		for s := 0; s < ne; s++ {
			row[j0+s] += alpha * acc[r][s]
		}
	}
}
