package fragmd_test

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"github.com/fragmd/fragmd"
	"github.com/fragmd/fragmd/internal/autotune"
	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
)

// -update regenerates the golden files instead of comparing:
//
//	go test -run Golden -update .
var update = flag.Bool("update", false, "rewrite golden trajectory files")

// Golden-trajectory regression tests: the quickstart and urea_crystal
// example workloads are run at reduced size and their energies
// compared bit-for-bit against committed JSON. Values are stored as
// shortest round-trip decimal strings (strconv 'g' −1), so string
// equality is float64 bit equality. Any refactor that changes an
// energy in the 16th digit shows up here; legitimate numerical changes
// are adopted explicitly with -update.
//
// Determinism requirements: one engine worker (sched folds polymer
// energies and gradients in completion order), the auto-tuner off (its
// timing-based variant arbitration picks different kernels run to run),
// the assembly microkernel off (its FMA contraction rounds differently
// from the portable kernel the files were recorded with), and fixed
// seeds. The core count does not matter: the integral and GEMM
// fan-outs split work by problem size and reduce in a fixed order
// (internal/par), so the files hold at any GOMAXPROCS. Pure-Go float64
// arithmetic is IEEE-deterministic on a given architecture; the
// committed files are amd64.

// fnum is a bit-exact float64 in JSON.
type fnum string

func num(v float64) fnum { return fnum(strconv.FormatFloat(v, 'g', -1, 64)) }

type goldenStep struct {
	Etot fnum `json:"etot"`
	Epot fnum `json:"epot"`
}

type goldenContribution struct {
	Key    string `json:"key"`
	DeltaE fnum   `json:"delta_e_ha"`
}

type goldenQuickstart struct {
	System      string               `json:"system"`
	NPolymers   int                  `json:"n_polymers"`
	MBEEnergy   fnum                 `json:"mbe_energy_ha"`
	Supersystem fnum                 `json:"supersystem_energy_ha"`
	Dimers      []goldenContribution `json:"dimer_deltas"`
	Trajectory  []goldenStep         `json:"trajectory"`
}

type goldenUrea struct {
	System   string `json:"system"`
	Energy   fnum   `json:"rimp2_energy_ha"`
	Gradient []fnum `json:"gradient_ha_bohr"`
}

// withDeterministicKernels pins the GEMM engine for the duration of a
// golden run: auto-tuner off (timing-based variant arbitration) and
// the assembly microkernel off — its FMA contraction changes f64
// rounding relative to the portable kernel the goldens were recorded
// with. The asm path is covered separately by the tolerance test
// below.
func withDeterministicKernels(t *testing.T, fn func()) {
	t.Helper()
	was := autotune.Default.Enabled
	autotune.Default.Enabled = false
	wasAsm := linalg.SetAsmEnabled(false)
	defer func() {
		autotune.Default.Enabled = was
		linalg.SetAsmEnabled(wasAsm)
	}()
	fn()
}

// compareGolden marshals got, then either rewrites the golden file
// (-update) or diffs byte-for-byte against it.
func compareGolden(t *testing.T, name string, got interface{}) {
	t.Helper()
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if string(want) != string(blob) {
		t.Errorf("energies diverged from %s — a refactor changed the numbers.\n"+
			"If intentional, regenerate with: go test -run Golden -update .\ngot:\n%swant:\n%s",
			path, blob, want)
	}
}

// The quickstart example's workload: MBE3/RI-MP2 on a 3-water cluster
// (exact vs the supersystem), the dimer ΔEs, and 3 steps of
// asynchronous NVE AIMD.
func TestGoldenQuickstartTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("RI-MP2 trajectory is slow; run without -short")
	}
	withDeterministicKernels(t, func() {
		sys := fragmd.WaterCluster(3)
		frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eval := fragmd.NewRIMP2Potential("sto-3g", false)
		res, err := frag.Compute(eval)
		if err != nil {
			t.Fatal(err)
		}
		eSuper, _, err := eval.Evaluate(sys)
		if err != nil {
			t.Fatal(err)
		}
		g := goldenQuickstart{
			System:      "water cluster n=3, MBE3/RI-MP2/STO-3G",
			NPolymers:   res.NPolymers,
			MBEEnergy:   num(res.Energy),
			Supersystem: num(eSuper),
		}
		keys := make([]string, 0, len(res.DeltaDimer))
		for k := range res.DeltaDimer {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g.Dimers = append(g.Dimers, goldenContribution{Key: k, DeltaE: num(res.DeltaDimer[k])})
		}

		eng, err := sched.New(frag, eval, sched.Options{
			Workers: 1, Async: true, Dt: 0.5 * chem.AtomicTimePerFs,
		})
		if err != nil {
			t.Fatal(err)
		}
		state := md.NewState(frag.Geom.Clone())
		state.SampleVelocities(150, rand.New(rand.NewSource(1)))
		stats, err := eng.Run(state, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			g.Trajectory = append(g.Trajectory, goldenStep{Etot: num(st.Etot), Epot: num(st.Epot)})
		}
		compareGolden(t, "golden_quickstart.json", g)
	})
}

type goldenWaterBox struct {
	System     string       `json:"system"`
	CellBohr   []fnum       `json:"cell_bohr"`
	NMonomers  int          `json:"n_monomers"`
	NDimers    int          `json:"n_dimers"`
	MBE2Energy fnum         `json:"mbe2_lj_energy_ha"`
	Trajectory []goldenStep `json:"trajectory"`
}

// The water_box example's workload: periodic MBE2/LJ on a 3×3×3 water
// lattice with minimum-image boundaries and a dimer cutoff under half
// the box edge, plus 10 steps of NVE MD, locked bit-for-bit. This is
// the regression anchor for the whole PBC path — cell parsing, min-
// image dimer selection through the cell list, image-shifted fragment
// extraction, and periodic LJ forces all feed these numbers. (LJ is
// cheap, so this golden also runs under -short.)
func TestGoldenWaterBoxTrajectory(t *testing.T) {
	withDeterministicKernels(t, func() {
		sys := fragmd.WaterBox(3, 3, 3, 1)
		frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{
			MaxOrder:    2,
			DimerCutoff: 4.0 * chem.BohrPerAngstrom, // < L/2 = 4.66 Å
		})
		if err != nil {
			t.Fatal(err)
		}
		eval := fragmd.NewLennardJonesPotential()
		res, err := frag.Compute(eval)
		if err != nil {
			t.Fatal(err)
		}
		terms := frag.Terms()
		g := goldenWaterBox{
			System:     "water box 3x3x3, periodic MBE2/LJ, dimer cut 4 Å",
			NMonomers:  len(terms.Monomers),
			NDimers:    len(terms.Dimers),
			MBE2Energy: num(res.Energy),
		}
		for _, l := range sys.Cell.L {
			g.CellBohr = append(g.CellBohr, num(l))
		}

		eng, err := sched.New(frag, eval, sched.Options{
			Workers: 1, Async: true, Dt: 0.5 * chem.AtomicTimePerFs,
		})
		if err != nil {
			t.Fatal(err)
		}
		state := md.NewState(frag.Geom.Clone())
		state.SampleVelocities(150, rand.New(rand.NewSource(1)))
		stats, err := eng.Run(state, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			g.Trajectory = append(g.Trajectory, goldenStep{Etot: num(st.Etot), Epot: num(st.Epot)})
		}
		compareGolden(t, "golden_water_box.json", g)
	})
}

type goldenEmbedded struct {
	System       string       `json:"system"`
	NPolymers    int          `json:"n_polymers"`
	VacuumMBE2   fnum         `json:"vacuum_mbe2_ha"`
	EmbeddedMBE2 fnum         `json:"embedded_mbe2_ha"`
	Supersystem  fnum         `json:"supersystem_energy_ha"`
	SCCRounds    int          `json:"scc_rounds"`
	Charges      []fnum       `json:"embedding_charges_e"`
	Trajectory   []goldenStep `json:"trajectory"`
}

// The water_embedded example's workload: EE-MBE2/RI-HF on a 4-water
// cluster (vacuum vs embedded vs supersystem, the phase-1 charges) and
// 3 steps of embedded NVE AIMD, locked bit-for-bit.
func TestGoldenEmbeddedWaterTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("embedded RI-HF trajectory is slow; run without -short")
	}
	withDeterministicKernels(t, func() {
		sys := fragmd.WaterCluster(4)
		frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{MaxOrder: 2})
		if err != nil {
			t.Fatal(err)
		}
		eval := fragmd.NewHFPotential("sto-3g", true)
		eo := fragmd.EmbedOptions{SCC: 1, Damping: 0.3}
		super, _, err := eval.Evaluate(sys)
		if err != nil {
			t.Fatal(err)
		}
		vac, err := frag.Compute(eval)
		if err != nil {
			t.Fatal(err)
		}
		emb, err := frag.ComputeEmbedded(eval, nil, eo)
		if err != nil {
			t.Fatal(err)
		}
		g := goldenEmbedded{
			System:       "water cluster n=4, EE-MBE2/RI-HF/STO-3G",
			NPolymers:    emb.NPolymers,
			VacuumMBE2:   num(vac.Energy),
			EmbeddedMBE2: num(emb.Energy),
			Supersystem:  num(super),
			SCCRounds:    emb.SCCRounds,
		}
		for _, q := range emb.Charges {
			g.Charges = append(g.Charges, num(q))
		}

		eng, err := sched.New(frag, eval, sched.Options{
			Workers: 1, Async: true, Dt: 0.5 * chem.AtomicTimePerFs, Embed: &eo,
		})
		if err != nil {
			t.Fatal(err)
		}
		state := md.NewState(frag.Geom.Clone())
		state.SampleVelocities(120, rand.New(rand.NewSource(1)))
		stats, err := eng.Run(state, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			g.Trajectory = append(g.Trajectory, goldenStep{Etot: num(st.Etot), Epot: num(st.Epot)})
		}
		compareGolden(t, "golden_water_embedded.json", g)
	})
}

// The urea_crystal example's workload at regression-test size: the
// r=3 Å sphere is the single central molecule, whose RI-MP2 energy and
// full analytic gradient are locked bit-for-bit. (A urea *dimer*
// evaluation runs ~2 minutes in the pure-Go kernels, so the example's
// ΔE analysis is exercised at golden precision on the water dimers
// above instead.)
func TestGoldenUreaCrystalEnergies(t *testing.T) {
	if testing.Short() {
		t.Skip("RI-MP2 on urea is slow; run without -short")
	}
	withDeterministicKernels(t, func() {
		sys := fragmd.UreaCrystalSphere(3.0)
		eval := fragmd.NewRIMP2Potential("sto-3g", false)
		e, grad, err := eval.Evaluate(sys)
		if err != nil {
			t.Fatal(err)
		}
		g := goldenUrea{
			System: "urea crystal sphere r=3.0 Å (1 molecule), RI-MP2/STO-3G",
			Energy: num(e),
		}
		for _, v := range grad {
			g.Gradient = append(g.Gradient, num(v))
		}
		compareGolden(t, "golden_urea_crystal.json", g)
	})
}

// goldenMBEEnergy reads the committed quickstart golden and returns
// its MBE energy as a float64.
func goldenMBEEnergy(t *testing.T) float64 {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "golden_quickstart.json"))
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var g goldenQuickstart
	if err := json.Unmarshal(blob, &g); err != nil {
		t.Fatal(err)
	}
	e, err := strconv.ParseFloat(string(g.MBEEnergy), 64)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// quickstartMBE recomputes the quickstart MBE energy with the current
// kernel configuration (tuner off so only the kernel choice varies).
func quickstartMBE(t *testing.T) float64 {
	t.Helper()
	was := autotune.Default.Enabled
	autotune.Default.Enabled = false
	defer func() { autotune.Default.Enabled = was }()
	sys := fragmd.WaterCluster(3)
	frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eval := &potential.RIMP2{Basis: "sto-3g"}
	res, err := frag.Compute(eval)
	if err != nil {
		t.Fatal(err)
	}
	return res.Energy
}

// The assembly microkernel is FMA-contracted, so it cannot match the
// portable goldens bit-for-bit — but the converged MBE energy must
// agree to well below chemical meaning. Pins that enabling asm
// perturbs physics only at the rounding level.
func TestGoldenQuickstartAsmTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("RI-MP2 MBE is slow; run without -short")
	}
	if !linalg.AsmAvailable() {
		t.Skip("no assembly microkernel on this machine")
	}
	prev := linalg.SetAsmEnabled(true)
	defer linalg.SetAsmEnabled(prev)
	want := goldenMBEEnergy(t)
	got := quickstartMBE(t)
	if d := got - want; d > 1e-7 || d < -1e-7 {
		t.Fatalf("asm-kernel MBE energy %.12f vs golden %.12f (|Δ|=%.3g > 1e-7 Ha)", got, want, d)
	}
}
