package mp2

import (
	"math"
	"strings"
	"testing"

	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/scf"
)

// synthPairProblem builds a deterministic Qov tensor in both layouts
// plus a well-gapped orbital spectrum for kernel-level pair-loop tests.
func synthPairProblem(nocc, nvir, naux int) (qov, bov *linalg.Tensor3, eps []float64) {
	qov = linalg.NewTensor3(naux, nocc, nvir)
	for i := range qov.Data {
		qov.Data[i] = math.Sin(0.37*float64(i)) / float64(naux)
	}
	bov = linalg.NewTensor3(nocc, naux, nvir)
	for p := 0; p < naux; p++ {
		qp := qov.Slice(p)
		for i := 0; i < nocc; i++ {
			copy(bov.Slice(i).Row(p), qp.Row(i))
		}
	}
	eps = make([]float64, nocc+nvir)
	for i := 0; i < nocc; i++ {
		eps[i] = -2 + 0.013*float64(i)
	}
	for a := 0; a < nvir; a++ {
		eps[nocc+a] = 0.4 + 0.021*float64(a)
	}
	return qov, bov, eps
}

// The tiled pair loop must reproduce the per-pair reference for every
// tile width, including widths that leave remainder tiles, width 1
// (pure per-pair), the whole occupied space, and an over-wide request.
func TestPairEnergiesBlockedMatchesUnblocked(t *testing.T) {
	const nocc, nvir, naux = 10, 3, 24
	qov, bov, eps := synthPairProblem(nocc, nvir, naux)
	refOS, refSS, err := PairEnergiesUnblocked(bov, eps, nocc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, jblk := range []int{0, 1, 2, 3, 5, nocc, nocc + 7} {
		eos, ess, err := PairEnergiesBlocked(qov, eps, nocc, jblk, nil)
		if err != nil {
			t.Fatalf("jblk=%d: %v", jblk, err)
		}
		if math.Abs(eos-refOS) > 1e-12 || math.Abs(ess-refSS) > 1e-12 {
			t.Errorf("jblk=%d: blocked (%.14f, %.14f) != per-pair (%.14f, %.14f)",
				jblk, eos, ess, refOS, refSS)
		}
	}
}

// A vanishing HOMO–LUMO gap must surface as a descriptive error from
// both pair-loop kernels, never as ±Inf/NaN energies.
func TestPairEnergiesDegenerateGapError(t *testing.T) {
	const nocc, nvir, naux = 4, 3, 12
	qov, bov, eps := synthPairProblem(nocc, nvir, naux)
	eps[nocc] = eps[nocc-1] // collapse the gap

	if _, _, err := PairEnergiesBlocked(qov, eps, nocc, 0, nil); err == nil {
		t.Error("blocked loop accepted a degenerate reference")
	} else if !strings.Contains(err.Error(), "HOMO–LUMO") {
		t.Errorf("blocked loop error not descriptive: %v", err)
	}
	if _, _, err := PairEnergiesUnblocked(bov, eps, nocc, nil); err == nil {
		t.Error("per-pair loop accepted a degenerate reference")
	}
}

// ConventionalMP2 must reject a degenerate reference the same way.
func TestConventionalMP2DegenerateGapError(t *testing.T) {
	ref := &scf.Result{
		Converged: true,
		Bs:        &basis.Set{N: 2},
		NOcc:      1,
		C:         linalg.NewMat(2, 2),
		Eps:       []float64{-0.5, -0.5 + DegenGapTol/2},
	}
	eri := make([]float64, 16)
	if _, err := ConventionalMP2(ref, eri); err == nil {
		t.Error("ConventionalMP2 accepted a degenerate reference")
	}
}

// Empty occupied or virtual spaces are valid inputs with an identically
// zero correlation energy.
func TestPairEnergiesEmptySpaces(t *testing.T) {
	for _, c := range []struct{ nocc, nvir int }{{0, 3}, {4, 0}, {0, 0}} {
		qov := linalg.NewTensor3(8, c.nocc, c.nvir)
		bov := linalg.NewTensor3(c.nocc, 8, c.nvir)
		eps := make([]float64, c.nocc+c.nvir)
		eos, ess, err := PairEnergiesBlocked(qov, eps, c.nocc, 0, nil)
		if err != nil || eos != 0 || ess != 0 {
			t.Errorf("blocked nocc=%d nvir=%d: (%g, %g, %v), want zeros", c.nocc, c.nvir, eos, ess, err)
		}
		eos, ess, err = PairEnergiesUnblocked(bov, eps, c.nocc, nil)
		if err != nil || eos != 0 || ess != 0 {
			t.Errorf("per-pair nocc=%d nvir=%d: (%g, %g, %v), want zeros", c.nocc, c.nvir, eos, ess, err)
		}
	}
}

// Single occupied and single virtual orbital: the tiled loop's smallest
// possible problem, cross-checked against the closed-form pair energy.
func TestPairEnergiesSingleOrbital(t *testing.T) {
	qov, bov, eps := synthPairProblem(1, 1, 6)
	var v float64
	for p := 0; p < 6; p++ {
		v += qov.At(p, 0, 0) * qov.At(p, 0, 0)
	}
	de := 2*eps[0] - 2*eps[1]
	wantOS := v * v / de
	eos, ess, err := PairEnergiesBlocked(qov, eps, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eos-wantOS) > 1e-14 || math.Abs(ess) > 1e-14 {
		t.Errorf("single orbital: got (%.16f, %.16f), want (%.16f, 0)", eos, ess, wantOS)
	}
	peos, pess, err := PairEnergiesUnblocked(bov, eps, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eos != peos || ess != pess {
		t.Errorf("single-orbital blocked (%.16g, %.16g) != per-pair (%.16g, %.16g)", eos, ess, peos, pess)
	}
}

// ConventionalMP2 must never hold more than two N⁴ scratch arrays at
// once: each quarter transform releases its input before the next is
// allocated (the pre-fix transform kept three alive and re-derived the
// fourth quarter inside the energy loop).
func TestConventionalMP2QuarticScratchPeak(t *testing.T) {
	ref := runSCF(t, molecule.Water(), false, basis.AuxOptions{})
	eri := integrals.FourCenterAll(ref.Bs)
	ResetQuarticScratchStats()
	if _, err := ConventionalMP2(ref, eri); err != nil {
		t.Fatal(err)
	}
	if peak := QuarticScratchPeak(); peak != 2 {
		t.Errorf("quartic scratch high-water mark = %d arrays, want 2", peak)
	}
}

// Schwarz-screened three-center integrals at the default threshold must
// reproduce the unscreened RI-MP2 energies to well below chemical
// noise (the ISSUE acceptance bar is 1e-8 Ha).
func TestRIMP2ScreenedMatchesUnscreened(t *testing.T) {
	g := molecule.Water()
	bs, err := basis.Build("sto-3g", g)
	if err != nil {
		t.Fatal(err)
	}
	run := func(thresh float64) *Result {
		ref, err := scf.RHF(g, bs, scf.Options{
			UseRI: true, AuxOpts: smallAux,
			ConvE: 1e-12, ConvErr: 1e-10,
			RIScreenThresh: thresh,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := RIMP2(ref, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	unscreened := run(-1) // negative disables the screen
	screened := run(0)    // 0 selects the 1e-12 default
	loose := run(1e-10)   // tighter than chemical accuracy, looser than default
	for _, c := range []struct {
		name string
		r    *Result
	}{{"default", screened}, {"1e-10", loose}} {
		if d := math.Abs(c.r.Ecorr - unscreened.Ecorr); d > 1e-8 {
			t.Errorf("%s screen: Ecorr deviates %.3e Ha from unscreened", c.name, d)
		}
		if d := math.Abs(c.r.ETotal - unscreened.ETotal); d > 1e-8 {
			t.Errorf("%s screen: ETotal deviates %.3e Ha from unscreened", c.name, d)
		}
	}
}
