package bench

import (
	"time"

	"github.com/fragmd/fragmd/internal/autotune"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/mp2"
)

// rimp2E2EShape describes one end-to-end RI-MP2 pair-energy throughput
// problem: the correlation-energy pair loop over a synthetic Qov tensor
// of fragment-typical dimensions.
type rimp2E2EShape struct {
	name             string
	nocc, nvir, naux int
	tracked          bool
}

// rimp2E2EShapes returns the fragment-throughput suite. The quick shape
// is the CI acceptance problem: a compact-virtual-space fragment (many
// occupied pairs, small nvir) where the per-pair nvir × nvir GEMMs are
// far below the packed engine's profitable size, so the tiled loop's
// square macro products separate clearly from the per-pair baseline.
func rimp2E2EShapes(quick bool) []rimp2E2EShape {
	shapes := []rimp2E2EShape{
		{"rimp2-e2e-96x8", 96, 8, 448, true},
	}
	if !quick {
		shapes = append(shapes, rimp2E2EShape{"rimp2-e2e-128x12", 128, 12, 512, false})
	}
	return shapes
}

// synthQov builds a deterministic synthetic Qov tensor (P, i, a) and an
// orbital-energy spectrum with a healthy HOMO–LUMO gap.
func synthQov(nocc, nvir, naux int) (*linalg.Tensor3, []float64) {
	qov := linalg.NewTensor3(naux, nocc, nvir)
	for i := range qov.Data {
		qov.Data[i] = 1e-2 * float64(i%101) / 101
	}
	eps := make([]float64, nocc+nvir)
	for i := 0; i < nocc; i++ {
		eps[i] = -2 + 0.01*float64(i)
	}
	for a := 0; a < nvir; a++ {
		eps[nocc+a] = 0.5 + 0.01*float64(a)
	}
	return qov, eps
}

// bovFromQov reorders (P, i, a) → (i, P, a) for the per-pair baseline.
func bovFromQov(qov *linalg.Tensor3) *linalg.Tensor3 {
	naux, nocc := qov.N1, qov.N2
	bov := linalg.NewTensor3(nocc, naux, qov.N3)
	for p := 0; p < naux; p++ {
		qp := qov.Slice(p)
		for i := 0; i < nocc; i++ {
			copy(bov.Slice(i).Row(p), qp.Row(i))
		}
	}
	return bov
}

// rimp2PairFlops is the nominal GEMM work of one pair-loop sweep:
// nocc(nocc+1)/2 pairs, 2·naux·nvir² flops each. Both engines are
// normalised by the same figure so their GFLOP/s ratio is a pure time
// ratio.
func rimp2PairFlops(nocc, nvir, naux int) float64 {
	pairs := float64(nocc) * float64(nocc+1) / 2
	return pairs * 2 * float64(naux) * float64(nvir) * float64(nvir)
}

// runRIMP2E2ERows measures the end-to-end RI-MP2 pair-energy loop —
// tiled macro-GEMM engine vs the pre-change per-(i,j) pair loop — and
// returns baseline-gateable rows. Each engine gets its own auto-tuner,
// warmed by one untimed sweep so per-shape arbitration is locked before
// timing: production reuses the process-wide tuner across thousands of
// MD-step sweeps, so steady-state (locked) throughput is what the gate
// tracks, and the warm-up keeps the one-shot trial noise of the five
// candidate engines out of the measurement.
func runRIMP2E2ERows(quick bool) []GemmBenchRow {
	reps := 4
	if !quick {
		reps = 2
	}
	var rows []GemmBenchRow
	for _, s := range rimp2E2EShapes(quick) {
		qov, eps := synthQov(s.nocc, s.nvir, s.naux)
		bov := bovFromQov(qov)
		flops := rimp2PairFlops(s.nocc, s.nvir, s.naux)

		time1 := func(fn func() error) float64 {
			if err := fn(); err != nil { // warm-up: lock the tuner
				return 0
			}
			best := 0.0
			for r := 0; r < reps; r++ {
				start := time.Now()
				if err := fn(); err != nil {
					return 0
				}
				el := time.Since(start).Seconds()
				if best == 0 || el < best {
					best = el
				}
			}
			return best
		}
		blockedTuner := autotune.New()
		secBlocked := time1(func() error {
			_, _, err := mp2.PairEnergiesBlocked(qov, eps, s.nocc, 0, blockedTuner)
			return err
		})
		pairTuner := autotune.New()
		secPair := time1(func() error {
			_, _, err := mp2.PairEnergiesUnblocked(bov, eps, s.nocc, pairTuner)
			return err
		})
		if secBlocked == 0 || secPair == 0 {
			continue
		}
		rows = append(rows,
			GemmBenchRow{
				Name: s.name, M: s.nvir, K: s.naux, N: s.nocc * s.nvir,
				Kernel:  "blocked",
				Seconds: secBlocked, GFLOPS: flops / secBlocked / 1e9,
				Tracked: s.tracked,
			},
			GemmBenchRow{
				Name: s.name, M: s.nvir, K: s.naux, N: s.nvir,
				Kernel:  "pairloop",
				Seconds: secPair, GFLOPS: flops / secPair / 1e9,
				Tracked: false,
			})
	}
	return rows
}
