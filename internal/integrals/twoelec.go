package integrals

import (
	"math"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/par"
)

// twoERIPre is the 2π^{5/2} prefactor common to all ERI classes.
var twoERIPre = 2 * math.Pow(math.Pi, 2.5)

// hermiteSingle returns the three 1D Hermite expansion tables of a single
// primitive Gaussian of angular momentum l and exponent a (imax may
// exceed l for derivative raising).
func hermiteSingle(imax int, a float64) [3]eTable {
	t := newETable(imax, 0, a, 0, 0)
	return [3]eTable{t, t, t}
}

// contractHermite sums E^bra ⊗ E^ket against the R cube with the MD sign
// (−1)^{t'+u'+v'} on the ket indices:
//
//	Σ_{tuv} Σ_{t'u'v'} Ebx[t]·Eby[u]·Ebz[v]·Ekx[t']·Eky[u']·Ekz[v']·(−1)^{t'+u'+v'}·R[t+t'][u+u'][v+v']
func contractHermite(ebx, eby, ebz, ekx, eky, ekz []float64, r rCube) float64 {
	var sum float64
	for t := range ebx {
		bt := ebx[t]
		if bt == 0 {
			continue
		}
		for u := range eby {
			bu := eby[u]
			if bu == 0 {
				continue
			}
			btu := bt * bu
			for v := range ebz {
				bv := ebz[v]
				if bv == 0 {
					continue
				}
				btuv := btu * bv
				for t2 := range ekx {
					kt := ekx[t2]
					if kt == 0 {
						continue
					}
					if t2&1 == 1 {
						kt = -kt
					}
					rt := r[t+t2]
					for u2 := range eky {
						ku := eky[u2]
						if ku == 0 {
							continue
						}
						if u2&1 == 1 {
							ku = -ku
						}
						ktu := kt * ku
						ru := rt[u+u2]
						for v2 := range ekz {
							kv := ekz[v2]
							if kv == 0 {
								continue
							}
							if v2&1 == 1 {
								kv = -kv
							}
							sum += btuv * ktu * kv * ru[v+v2]
						}
					}
				}
			}
		}
	}
	return sum
}

// TwoCenter returns the Coulomb metric (P|Q) over the auxiliary basis.
func TwoCenter(aux *basis.Set) *linalg.Mat {
	m := linalg.NewMat(aux.N, aux.N)
	pairs := upperPairs(len(aux.Shells))
	par.For(len(pairs), shellGrain, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			sp, sq := &aux.Shells[pairs[idx][0]], &aux.Shells[pairs[idx][1]]
			blk := twoCenterBlock(sp, sq, nil, 0, nil)
			for i := 0; i < blk.Rows; i++ {
				for j := 0; j < blk.Cols; j++ {
					v := blk.At(i, j)
					m.Set(sp.Start+i, sq.Start+j, v)
					m.Set(sq.Start+j, sp.Start+i, v)
				}
			}
		}
	})
	return m
}

// TwoCenterDeriv accumulates factor·Σ_PQ ζ_PQ ∂(P|Q)/∂R into grad.
func TwoCenterDeriv(aux *basis.Set, zeta *linalg.Mat, factor float64, grad []float64) {
	pairs := allPairs(len(aux.Shells))
	par.Reduce(len(pairs), shellGrain, func(lo, hi int, part [][]float64) {
		buf := part[0]
		for idx := lo; idx < hi; idx++ {
			sp, sq := &aux.Shells[pairs[idx][0]], &aux.Shells[pairs[idx][1]]
			twoCenterBlock(sp, sq, zeta, factor, buf)
		}
	}, grad)
}

// twoCenterBlock computes the (P|Q) block for a shell pair. With grad
// non-nil it instead contracts the bra-center derivative with the weight
// (ζ_PQ + ζ_QP), accumulating on the bra atom (ordered-visit scheme).
func twoCenterBlock(sp, sq *basis.Shell, zeta *linalg.Mat, factor float64, grad []float64) *linalg.Mat {
	compP := basis.CartComponents(sp.L)
	compQ := basis.CartComponents(sq.L)
	deriv := grad != nil
	var val *linalg.Mat
	if !deriv {
		val = linalg.NewMat(len(compP), len(compQ))
	}
	imax := sp.L
	if deriv {
		imax++
	}
	tmax := imax + sq.L
	dx := sp.Center[0] - sq.Center[0]
	dy := sp.Center[1] - sq.Center[1]
	dz := sp.Center[2] - sq.Center[2]
	for p, a := range sp.Exps {
		eb := hermiteSingle(imax, a)
		for q, b := range sq.Exps {
			ek := hermiteSingle(sq.L, b)
			alpha := a * b / (a + b)
			pre := twoERIPre / (a * b * math.Sqrt(a+b))
			r := newRCube(tmax, alpha, dx, dy, dz)
			for cp, P := range compP {
				for cq, Q := range compQ {
					coef := sp.Coefs[cp][p] * sq.Coefs[cq][q] * pre
					value := func(ia [3]int) float64 {
						return contractHermite(
							eb[0][ia[0]][0], eb[1][ia[1]][0], eb[2][ia[2]][0],
							ek[0][Q[0]][0], ek[1][Q[1]][0], ek[2][Q[2]][0], r)
					}
					if !deriv {
						val.Add(cp, cq, coef*value(P))
						continue
					}
					wv := (zeta.At(sp.Start+cp, sq.Start+cq) + zeta.At(sq.Start+cq, sp.Start+cp)) * factor * coef
					if wv == 0 {
						continue
					}
					for d := 0; d < 3; d++ {
						up, down := P, P
						up[d]++
						down[d]--
						dv := 2 * a * value(up)
						if P[d] > 0 {
							dv -= float64(P[d]) * value(down)
						}
						grad[3*sp.Atom+d] += wv * dv
					}
				}
			}
		}
	}
	return val
}

// ThreeCenter returns the three-center ERI tensor (μν|P) stored as
// (P, μ, ν) — the B-tensor precursor of paper Eq. 6.
func ThreeCenter(bs, aux *basis.Set) *linalg.Tensor3 {
	return ThreeCenterScreened(bs, aux, nil, 0)
}

// SchwarzAux returns the per-auxiliary-shell Cauchy–Schwarz bounds
// Q_P = √max|(P|P)| over the shell's diagonal metric block — the
// ket-side factor of the three-center bound |(μν|P)| ≤ Q_μν·Q_P.
func SchwarzAux(aux *basis.Set) []float64 {
	q := make([]float64, len(aux.Shells))
	par.For(len(aux.Shells), shellGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sp := &aux.Shells[i]
			blk := twoCenterBlock(sp, sp, nil, 0, nil)
			var mx float64
			for c := 0; c < blk.Rows; c++ {
				if v := math.Abs(blk.At(c, c)); v > mx {
					mx = v
				}
			}
			q[i] = math.Sqrt(mx)
		}
	})
	return q
}

// ThreeCenterScreened is ThreeCenter with Cauchy–Schwarz screening: a
// bra shell pair whose bound Q_μν·max_P Q_P falls below thresh is
// skipped outright, and a surviving pair skips the individual auxiliary
// shells with Q_μν·Q_P < thresh. sw is SchwarzShellPairs(bs); a nil sw
// or thresh ≤ 0 disables screening. Skipped blocks are exact zeros in
// the returned tensor, and every retained element is computed at full
// precision, so the screened tensor converges elementwise to the
// unscreened one as thresh → 0 with max error below thresh.
func ThreeCenterScreened(bs, aux *basis.Set, sw *linalg.Mat, thresh float64) *linalg.Tensor3 {
	t := linalg.NewTensor3(aux.N, bs.N, bs.N)
	screen := sw != nil && thresh > 0
	var qaux []float64
	pairs := upperPairs(len(bs.Shells))
	if screen {
		qaux = SchwarzAux(aux)
		var qmax float64
		for _, v := range qaux {
			if v > qmax {
				qmax = v
			}
		}
		kept := pairs[:0]
		for _, pr := range pairs {
			if sw.At(pr[0], pr[1])*qmax >= thresh {
				kept = append(kept, pr)
			}
		}
		pairs = kept
	}
	par.For(len(pairs), shellGrain, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			ia, ib := pairs[idx][0], pairs[idx][1]
			sa, sb := &bs.Shells[ia], &bs.Shells[ib]
			var bound float64
			if screen {
				bound = sw.At(ia, ib)
			}
			for ip := range aux.Shells {
				if screen && bound*qaux[ip] < thresh {
					continue
				}
				sp := &aux.Shells[ip]
				blk := threeCenterBlock(sa, sb, sp, nil, 0, nil)
				na, nb := sa.NCart(), sb.NCart()
				for i := 0; i < na; i++ {
					for j := 0; j < nb; j++ {
						for k := 0; k < sp.NCart(); k++ {
							v := blk[(i*nb+j)*sp.NCart()+k]
							t.Set(sp.Start+k, sa.Start+i, sb.Start+j, v)
							t.Set(sp.Start+k, sb.Start+j, sa.Start+i, v)
						}
					}
				}
			}
		}
	})
	return t
}

// ThreeCenterDeriv accumulates factor·Σ_Pμν Z_Pμν ∂(μν|P)/∂R into grad.
func ThreeCenterDeriv(bs, aux *basis.Set, z *linalg.Tensor3, factor float64, grad []float64) {
	pairs := allPairs(len(bs.Shells))
	par.Reduce(len(pairs), shellGrain, func(lo, hi int, part [][]float64) {
		buf := part[0]
		for idx := lo; idx < hi; idx++ {
			sa, sb := &bs.Shells[pairs[idx][0]], &bs.Shells[pairs[idx][1]]
			for ip := range aux.Shells {
				threeCenterBlock(sa, sb, &aux.Shells[ip], z, factor, buf)
			}
		}
	}, grad)
}

// threeCenterBlock computes the (μν|P) block for a bra shell pair and one
// auxiliary shell, returned flattened as [(i·nb+j)·nP+k]. With grad
// non-nil it instead contracts the bra-left derivative with the weight
// (Z_Pμν + Z_Pνμ), accumulating +contribution on the bra-left atom and
// −contribution on the auxiliary atom (translational invariance supplies
// the auxiliary-center derivative across the two ordered bra visits).
func threeCenterBlock(sa, sb, sp *basis.Shell, z *linalg.Tensor3, factor float64, grad []float64) []float64 {
	compA := basis.CartComponents(sa.L)
	compB := basis.CartComponents(sb.L)
	compP := basis.CartComponents(sp.L)
	deriv := grad != nil
	var val []float64
	if !deriv {
		val = make([]float64, len(compA)*len(compB)*len(compP))
	}
	imax := sa.L
	if deriv {
		imax++
	}
	tmax := imax + sb.L + sp.L
	var ab [3]float64
	for d := 0; d < 3; d++ {
		ab[d] = sa.Center[d] - sb.Center[d]
	}
	var e [3]eTable
	for p, a := range sa.Exps {
		for q, b := range sb.Exps {
			pexp := a + b
			for d := 0; d < 3; d++ {
				e[d] = newETable(imax, sb.L, a, b, ab[d])
			}
			var pab [3]float64
			for d := 0; d < 3; d++ {
				pab[d] = (a*sa.Center[d] + b*sb.Center[d]) / pexp
			}
			for pp, c := range sp.Exps {
				ek := hermiteSingle(sp.L, c)
				alpha := pexp * c / (pexp + c)
				pre := twoERIPre / (pexp * c * math.Sqrt(pexp+c))
				r := newRCube(tmax, alpha, pab[0]-sp.Center[0], pab[1]-sp.Center[1], pab[2]-sp.Center[2])
				for ca, A := range compA {
					for cb, B := range compB {
						cf := sa.Coefs[ca][p] * sb.Coefs[cb][q] * pre
						for cp, P := range compP {
							coef := cf * sp.Coefs[cp][pp]
							value := func(ia [3]int) float64 {
								return contractHermite(
									e[0][ia[0]][B[0]], e[1][ia[1]][B[1]], e[2][ia[2]][B[2]],
									ek[0][P[0]][0], ek[1][P[1]][0], ek[2][P[2]][0], r)
							}
							if !deriv {
								val[(ca*len(compB)+cb)*len(compP)+cp] += coef * value(A)
								continue
							}
							wv := (z.At(sp.Start+cp, sa.Start+ca, sb.Start+cb) +
								z.At(sp.Start+cp, sb.Start+cb, sa.Start+ca)) * factor * coef
							if wv == 0 {
								continue
							}
							for d := 0; d < 3; d++ {
								up, down := A, A
								up[d]++
								down[d]--
								dv := 2 * a * value(up)
								if A[d] > 0 {
									dv -= float64(A[d]) * value(down)
								}
								grad[3*sa.Atom+d] += wv * dv
								grad[3*sp.Atom+d] -= wv * dv
							}
						}
					}
				}
			}
		}
	}
	return val
}

// ERIIndex addresses the flat four-center array returned by
// FourCenterAll: ((μ·n+ν)·n+λ)·n+σ.
func ERIIndex(n, mu, nu, la, si int) int { return ((mu*n+nu)*n+la)*n + si }

// FourCenterAll computes the full (μν|λσ) tensor. Memory is O(N⁴); it is
// intended for the conventional-method baselines and for validating the
// RI approximation on small systems.
func FourCenterAll(bs *basis.Set) []float64 {
	n := bs.N
	out := make([]float64, n*n*n*n)
	nsh := len(bs.Shells)
	quartets := make([][4]int, 0, nsh*nsh*nsh*nsh/4)
	for i := 0; i < nsh; i++ {
		for j := i; j < nsh; j++ {
			for k := 0; k < nsh; k++ {
				for l := k; l < nsh; l++ {
					quartets = append(quartets, [4]int{i, j, k, l})
				}
			}
		}
	}
	par.For(len(quartets), shellGrain, func(lo, hi int) {
		for qi := lo; qi < hi; qi++ {
			q := quartets[qi]
			sa, sb, sc, sd := &bs.Shells[q[0]], &bs.Shells[q[1]], &bs.Shells[q[2]], &bs.Shells[q[3]]
			blk := fourCenterBlock(sa, sb, sc, sd, nil, 0, nil)
			na, nb, nc, nd := sa.NCart(), sb.NCart(), sc.NCart(), sd.NCart()
			for i := 0; i < na; i++ {
				for j := 0; j < nb; j++ {
					for k := 0; k < nc; k++ {
						for l := 0; l < nd; l++ {
							v := blk[((i*nb+j)*nc+k)*nd+l]
							mu, nu, la, si := sa.Start+i, sb.Start+j, sc.Start+k, sd.Start+l
							out[ERIIndex(n, mu, nu, la, si)] = v
							out[ERIIndex(n, nu, mu, la, si)] = v
							out[ERIIndex(n, mu, nu, si, la)] = v
							out[ERIIndex(n, nu, mu, si, la)] = v
						}
					}
				}
			}
		}
	})
	return out
}

// fourCenterBlock computes the (μν|λσ) block of a shell quartet,
// flattened as [((i·nb+j)·nc+k)·nd+l]. With grad non-nil it contracts the
// slot-1 (bra-left) derivative with the caller-provided weight function
// w4(μ,ν,λ,σ) (global indices), accumulating on the bra-left atom.
func fourCenterBlock(sa, sb, sc, sd *basis.Shell, w4 func(mu, nu, la, si int) float64, factor float64, grad []float64) []float64 {
	compA := basis.CartComponents(sa.L)
	compB := basis.CartComponents(sb.L)
	compC := basis.CartComponents(sc.L)
	compD := basis.CartComponents(sd.L)
	deriv := grad != nil
	var val []float64
	if !deriv {
		val = make([]float64, len(compA)*len(compB)*len(compC)*len(compD))
	}
	imax := sa.L
	if deriv {
		imax++
	}
	tmax := imax + sb.L + sc.L + sd.L
	var abv, cdv [3]float64
	for d := 0; d < 3; d++ {
		abv[d] = sa.Center[d] - sb.Center[d]
		cdv[d] = sc.Center[d] - sd.Center[d]
	}
	var eb, ek [3]eTable
	for p1, a := range sa.Exps {
		for p2, b := range sb.Exps {
			pexp := a + b
			for d := 0; d < 3; d++ {
				eb[d] = newETable(imax, sb.L, a, b, abv[d])
			}
			var pab [3]float64
			for d := 0; d < 3; d++ {
				pab[d] = (a*sa.Center[d] + b*sb.Center[d]) / pexp
			}
			for p3, c := range sc.Exps {
				for p4, dd := range sd.Exps {
					qexp := c + dd
					for d := 0; d < 3; d++ {
						ek[d] = newETable(sc.L, sd.L, c, dd, cdv[d])
					}
					var pcd [3]float64
					for d := 0; d < 3; d++ {
						pcd[d] = (c*sc.Center[d] + dd*sd.Center[d]) / qexp
					}
					alpha := pexp * qexp / (pexp + qexp)
					pre := twoERIPre / (pexp * qexp * math.Sqrt(pexp+qexp))
					r := newRCube(tmax, alpha, pab[0]-pcd[0], pab[1]-pcd[1], pab[2]-pcd[2])
					for ca, A := range compA {
						for cb, B := range compB {
							cfab := sa.Coefs[ca][p1] * sb.Coefs[cb][p2] * pre
							for cc, C := range compC {
								for cd, D := range compD {
									coef := cfab * sc.Coefs[cc][p3] * sd.Coefs[cd][p4]
									value := func(ia [3]int) float64 {
										return contractHermite(
											eb[0][ia[0]][B[0]], eb[1][ia[1]][B[1]], eb[2][ia[2]][B[2]],
											ek[0][C[0]][D[0]], ek[1][C[1]][D[1]], ek[2][C[2]][D[2]], r)
									}
									if !deriv {
										val[((ca*len(compB)+cb)*len(compC)+cc)*len(compD)+cd] += coef * value(A)
										continue
									}
									wv := w4(sa.Start+ca, sb.Start+cb, sc.Start+cc, sd.Start+cd) * factor * coef
									if wv == 0 {
										continue
									}
									for d := 0; d < 3; d++ {
										up, down := A, A
										up[d]++
										down[d]--
										dv := 2 * a * value(up)
										if A[d] > 0 {
											dv -= float64(A[d]) * value(down)
										}
										grad[3*sa.Atom+d] += wv * dv
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return val
}

// SchwarzShellPairs returns the Cauchy–Schwarz bounds
// Q_ab = √max|(ab|ab)| per shell pair, used to screen quartets.
func SchwarzShellPairs(bs *basis.Set) *linalg.Mat {
	nsh := len(bs.Shells)
	q := linalg.NewMat(nsh, nsh)
	pairs := upperPairs(nsh)
	par.For(len(pairs), shellGrain, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			i, j := pairs[idx][0], pairs[idx][1]
			sa, sb := &bs.Shells[i], &bs.Shells[j]
			blk := fourCenterBlock(sa, sb, sa, sb, nil, 0, nil)
			na, nb := sa.NCart(), sb.NCart()
			var mx float64
			for ii := 0; ii < na; ii++ {
				for jj := 0; jj < nb; jj++ {
					v := math.Abs(blk[((ii*nb+jj)*na+ii)*nb+jj])
					if v > mx {
						mx = v
					}
				}
			}
			v := math.Sqrt(mx)
			q.Set(i, j, v)
			q.Set(j, i, v)
		}
	})
	return q
}

// FockDirect builds the two-electron part of the closed-shell Fock matrix
// G_μν = Σ_λσ D_λσ [(μν|λσ) − ½(μλ|νσ)] with integral recomputation and
// Schwarz screening — the conventional O(N⁴) path the paper's RI
// formulation replaces (§V-C).
func FockDirect(bs *basis.Set, dmat *linalg.Mat, sw *linalg.Mat, thresh float64) *linalg.Mat {
	n := bs.N
	nsh := len(bs.Shells)
	dmax := dmat.MaxAbs()
	type quartet struct{ a, b, c, d int }
	var quartets []quartet
	for i := 0; i < nsh; i++ {
		for j := 0; j < nsh; j++ {
			qij := sw.At(i, j)
			for k := 0; k < nsh; k++ {
				for l := 0; l < nsh; l++ {
					if qij*sw.At(k, l)*dmax < thresh {
						continue
					}
					quartets = append(quartets, quartet{i, j, k, l})
				}
			}
		}
	}
	g := linalg.NewMat(n, n)
	par.Reduce(len(quartets), shellGrain, func(lo, hi int, part [][]float64) {
		loc := &linalg.Mat{Rows: n, Cols: n, Data: part[0]}
		for qi := lo; qi < hi; qi++ {
			q := quartets[qi]
			sa, sb, sc, sd := &bs.Shells[q.a], &bs.Shells[q.b], &bs.Shells[q.c], &bs.Shells[q.d]
			blk := fourCenterBlock(sa, sb, sc, sd, nil, 0, nil)
			na, nb, nc, nd := sa.NCart(), sb.NCart(), sc.NCart(), sd.NCart()
			for i := 0; i < na; i++ {
				mu := sa.Start + i
				for j := 0; j < nb; j++ {
					nu := sb.Start + j
					for k := 0; k < nc; k++ {
						la := sc.Start + k
						for l := 0; l < nd; l++ {
							si := sd.Start + l
							v := blk[((i*nb+j)*nc+k)*nd+l]
							// Coulomb: J_μν += D_λσ (μν|λσ)
							loc.Add(mu, nu, dmat.At(la, si)*v)
							// Exchange: K_μλ += D_νσ (μν|λσ); G −= ½K
							loc.Add(mu, la, -0.5*dmat.At(nu, si)*v)
						}
					}
				}
			}
		}
	}, g.Data)
	return g
}

// FourCenterDerivHF accumulates the conventional closed-shell HF
// two-electron gradient
//
//	factor·Σ ∂(μν|λσ)/∂R · [½ D_μν D_λσ − ¼ D_μλ D_νσ]
//
// into grad, recomputing derivative integrals on the fly. Every ordered
// quartet is visited once with only the slot-1 derivative evaluated; the
// four-slot sum is recovered with the permuted weight
// W = 2·D_μν·D_λσ − ½·(D_μλ·D_νσ + D_νλ·D_μσ) (see package comment).
func FourCenterDerivHF(bs *basis.Set, dmat *linalg.Mat, sw *linalg.Mat, thresh, factor float64, grad []float64) {
	nsh := len(bs.Shells)
	dmax := dmat.MaxAbs()
	w4 := func(mu, nu, la, si int) float64 {
		return 2*dmat.At(mu, nu)*dmat.At(la, si) -
			0.5*(dmat.At(mu, la)*dmat.At(nu, si)+dmat.At(nu, la)*dmat.At(mu, si))
	}
	var quartets [][4]int
	for i := 0; i < nsh; i++ {
		for j := 0; j < nsh; j++ {
			qij := sw.At(i, j)
			for k := 0; k < nsh; k++ {
				for l := 0; l < nsh; l++ {
					if qij*sw.At(k, l)*dmax*dmax < thresh {
						continue
					}
					quartets = append(quartets, [4]int{i, j, k, l})
				}
			}
		}
	}
	par.Reduce(len(quartets), shellGrain, func(lo, hi int, part [][]float64) {
		buf := part[0]
		for qi := lo; qi < hi; qi++ {
			q := quartets[qi]
			fourCenterBlock(&bs.Shells[q[0]], &bs.Shells[q[1]], &bs.Shells[q[2]], &bs.Shells[q[3]],
				w4, factor, buf)
		}
	}, grad)
}
