package fragmd_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/fragmd/fragmd"
	"github.com/fragmd/fragmd/internal/autotune"
	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/sched"
)

// TestCoreCountDeterminism evaluates each workload under GOMAXPROCS 1,
// 2, 4 and 8 and requires bitwise-equal energies and gradients: the
// integral and GEMM fan-outs split work by problem size only and reduce
// partials in a fixed order, so the core count must not reach the
// numbers. The tuner is off because its timing-based arbitration is
// nondeterministic by design; the assembly kernel stays at its default.
func TestCoreCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("RI-MP2 on urea and an embedded MD step are slow; run without -short")
	}
	was := autotune.Default.Enabled
	autotune.Default.Enabled = false
	defer func() { autotune.Default.Enabled = was }()

	workloads := []struct {
		name string
		run  func(t *testing.T) []float64
	}{
		{"urea RI-MP2 energy+gradient", func(t *testing.T) []float64 {
			return evaluateBits(t, fragmd.NewRIMP2Potential("sto-3g", false), fragmd.UreaCrystalSphere(3.0))
		}},
		{"water hf4c energy+gradient", func(t *testing.T) []float64 {
			return evaluateBits(t, fragmd.NewHFPotential("sto-3g", false), fragmd.WaterCluster(1))
		}},
		{"EE-MBE2 RI-MP2 water trimer MD step", embeddedStepBits},
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			want := w.run(t)
			for _, procs := range []int{2, 4, 8} {
				runtime.GOMAXPROCS(procs)
				got := w.run(t)
				if len(got) != len(want) {
					t.Fatalf("GOMAXPROCS=%d: %d values, want %d", procs, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("GOMAXPROCS=%d: value %d = %.17g, want %.17g at GOMAXPROCS=1",
							procs, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// evaluateBits returns the energy followed by the gradient of one
// fresh evaluation.
func evaluateBits(t *testing.T, eval fragmd.Evaluator, sys *fragmd.Geometry) []float64 {
	t.Helper()
	e, grad, err := eval.Evaluate(sys)
	if err != nil {
		t.Fatal(err)
	}
	return append([]float64{e}, grad...)
}

// embeddedStepBits runs one asynchronous EE-MBE2 RI-MP2 MD step on a
// water trimer with one engine worker, whose gradient assembly goes
// through the point-charge derivative reduction, and returns the step
// energies and the new positions and velocities.
func embeddedStepBits(t *testing.T) []float64 {
	t.Helper()
	sys := fragmd.WaterCluster(3)
	frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	eo := fragmd.EmbedOptions{SCC: 1, Damping: 0.3}
	eng, err := sched.New(frag, fragmd.NewRIMP2Potential("sto-3g", false), sched.Options{
		Workers: 1, Async: true, Dt: 0.5 * chem.AtomicTimePerFs, Embed: &eo,
	})
	if err != nil {
		t.Fatal(err)
	}
	state := md.NewState(frag.Geom.Clone())
	state.SampleVelocities(120, rand.New(rand.NewSource(1)))
	stats, err := eng.Run(state, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, st := range stats {
		out = append(out, st.Etot, st.Epot)
	}
	for i, a := range state.Geom.Atoms {
		out = append(out, a.Pos[0], a.Pos[1], a.Pos[2])
		out = append(out, state.Vel[i][:]...)
	}
	return out
}
