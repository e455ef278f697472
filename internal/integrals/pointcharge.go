package integrals

import (
	"math"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/par"
)

// PointCharges is an external electrostatic field of point charges —
// the embedding environment of an EE-MBE fragment evaluation. A
// positive charge attracts electrons exactly like a nucleus of the
// same magnitude. The charge–charge interaction *among* the field
// sites is never included in any energy here: it is a property of the
// environment, not of the embedded fragment.
type PointCharges struct {
	Pos []float64 // flat 3M site positions, Bohr
	Q   []float64 // M charges, units of e
}

// N returns the number of charge sites (nil-safe).
func (pc *PointCharges) N() int {
	if pc == nil {
		return 0
	}
	return len(pc.Q)
}

// Clone deep-copies the field (nil stays nil).
func (pc *PointCharges) Clone() *PointCharges {
	if pc == nil {
		return nil
	}
	return &PointCharges{
		Pos: append([]float64(nil), pc.Pos...),
		Q:   append([]float64(nil), pc.Q...),
	}
}

// PointChargeMatrix returns the electron–field attraction matrix
// V^pc_μν = Σ_c −q_c (μ|1/r_c|ν), the external-field contribution to
// the core Hamiltonian. It reuses the nuclear-attraction Hermite
// machinery with the field sites as attraction centers.
func PointChargeMatrix(bs *basis.Set, pc *PointCharges) *linalg.Mat {
	m := linalg.NewMat(bs.N, bs.N)
	if pc.N() == 0 {
		return m
	}
	pairs := upperPairs(len(bs.Shells))
	par.For(len(pairs), shellGrain, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			sa, sb := &bs.Shells[pairs[idx][0]], &bs.Shells[pairs[idx][1]]
			blk := linalg.NewMat(sa.NCart(), sb.NCart())
			coulombPair(sa, sb, pc.Pos, pc.Q, blk, nil, 0, nil, nil)
			for i := 0; i < blk.Rows; i++ {
				for j := 0; j < blk.Cols; j++ {
					v := blk.At(i, j)
					m.Set(sa.Start+i, sb.Start+j, v)
					m.Set(sb.Start+j, sa.Start+i, v)
				}
			}
		}
	})
	return m
}

// PointChargeDeriv accumulates the derivative of the electron–field
// attraction contracted with the weights w: factor·Σ_μν w_μν ∂V^pc_μν
// lands on the basis-function atoms in grad (length 3·natoms) and, via
// the operator-center share, on the field sites in siteGrad (length
// 3·M). Both orientations of w are contracted (ordered pair visits).
func PointChargeDeriv(bs *basis.Set, pc *PointCharges, w *linalg.Mat, factor float64, grad, siteGrad []float64) {
	if pc.N() == 0 {
		return
	}
	pairs := allPairs(len(bs.Shells))
	par.Reduce(len(pairs), shellGrain, func(lo, hi int, part [][]float64) {
		bufA, bufS := part[0], part[1]
		for idx := lo; idx < hi; idx++ {
			sa, sb := &bs.Shells[pairs[idx][0]], &bs.Shells[pairs[idx][1]]
			coulombPair(sa, sb, pc.Pos, pc.Q, nil, w, factor, bufA, bufS)
		}
	}, grad, siteGrad)
}

// CoulombPairTerm returns the classical Coulomb energy q_a·q_b/r of
// two point charges and the energy gradient with respect to the first
// position (the second's gradient is its negation) — the one kernel
// behind every classical charge–charge term of the EE-MBE machinery:
// the nuclear–field interaction here, the surrogate potential's
// embedded Coulomb, and the far-pair residual correction.
func CoulombPairTerm(pa, pb [3]float64, qa, qb float64) (e float64, dA [3]float64) {
	var d [3]float64
	var r2 float64
	for k := 0; k < 3; k++ {
		d[k] = pa[k] - pb[k]
		r2 += d[k] * d[k]
	}
	r := math.Sqrt(r2)
	e = qa * qb / r
	s := -qa * qb / (r2 * r)
	for k := 0; k < 3; k++ {
		dA[k] = s * d[k]
	}
	return e, dA
}

// NuclearFieldEnergy returns the classical interaction of the nuclei
// with the field, Σ_A Σ_c Z_A q_c / |R_A − R_c| (Hartree).
func NuclearFieldEnergy(g *molecule.Geometry, pc *PointCharges) float64 {
	var e float64
	for _, at := range g.Atoms {
		for c := 0; c < pc.N(); c++ {
			ec, _ := CoulombPairTerm(at.Pos, [3]float64{pc.Pos[3*c], pc.Pos[3*c+1], pc.Pos[3*c+2]},
				float64(at.Z), pc.Q[c])
			e += ec
		}
	}
	return e
}

// NuclearFieldDeriv accumulates factor·∇(Σ Z_A q_c/r_Ac) onto the
// nuclei (grad) and the field sites (siteGrad).
func NuclearFieldDeriv(g *molecule.Geometry, pc *PointCharges, factor float64, grad, siteGrad []float64) {
	for ai, at := range g.Atoms {
		for c := 0; c < pc.N(); c++ {
			_, dA := CoulombPairTerm(at.Pos, [3]float64{pc.Pos[3*c], pc.Pos[3*c+1], pc.Pos[3*c+2]},
				float64(at.Z), pc.Q[c])
			for k := 0; k < 3; k++ {
				grad[3*ai+k] += factor * dA[k]
				siteGrad[3*c+k] -= factor * dA[k]
			}
		}
	}
}
