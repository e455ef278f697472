package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"github.com/fragmd/fragmd/internal/autotune"
	"github.com/fragmd/fragmd/internal/basis"
	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/linalg"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/mp2"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/scf"
	"github.com/fragmd/fragmd/internal/sched"
	"github.com/fragmd/fragmd/internal/warmstart"
)

const (
	dtFs  = 0.5 // MD time step, fs
	tempK = 150 // Maxwell–Boltzmann temperature, K

	// quickstartSteps is one quickstart trajectory: the length of the
	// committed golden, so the golden seed checks every step.
	quickstartSteps = 3
	goldenSeed      = 1
	// quickstartMinTrajectories is the least a run measures, whatever
	// the run length: one 3-step trajectory's time swung by up to 40 %
	// between runs with the host's load, and a longer measurement
	// averages more of that out.
	quickstartMinTrajectories = 2

	// Physics tolerances: the asm microkernel and the autotuner move
	// RI-MP2 energies at the 1e-9 Ha level against the portable-kernel
	// goldens (the repo's own asm tolerance test allows 1e-7 Ha).
	rimp2TolHa   = 1e-7
	rimp2TolGrad = 1e-6 // Ha/Bohr
)

// fnum is a golden's float64, stored as a shortest-round-trip decimal
// string.
type fnum float64

func (f *fnum) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := strconv.ParseFloat(s, 64)
	*f = fnum(v)
	return err
}

// readGolden decodes testdata/<name> from the checkout root.
func readGolden(name string, v interface{}) error {
	blob, err := os.ReadFile("testdata/" + name)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, v)
}

type mdSetup struct {
	frag  *fragment.Fragmentation
	eng   *sched.Engine
	state *md.State
}

// newQuickstartFrag fragments WaterCluster(3) by molecule, MBE3 with no
// cutoffs.
func newQuickstartFrag() (*fragment.Fragmentation, error) {
	return fragment.ByMolecule(molecule.WaterCluster(3), 3, 1, fragment.Options{})
}

// newQuickstart builds the quickstart trajectory: RI-MP2/STO-3G, async
// engine with warm start, Maxwell–Boltzmann velocities from the seed.
func newQuickstart(cfg *config, eval fragment.Evaluator, log *evalLog) (*mdSetup, error) {
	frag, err := newQuickstartFrag()
	if err != nil {
		return nil, err
	}
	opts := sched.Options{Workers: cfg.workers, Async: true, Dt: dtFs * chem.AtomicTimePerFs, WarmStart: true}
	if log != nil {
		opts.TraceDispatch = log.watch(frag)
	}
	eng, err := sched.New(frag, eval, opts)
	if err != nil {
		return nil, err
	}
	state := md.NewState(frag.Geom.Clone())
	state.SampleVelocities(tempK, rand.New(rand.NewSource(cfg.seed)))
	return &mdSetup{frag: frag, eng: eng, state: state}, nil
}

type goldenQuickstart struct {
	Trajectory []struct {
		Etot fnum `json:"etot"`
		Epot fnum `json:"epot"`
	} `json:"trajectory"`
}

// runQuickstart runs whole quickstart trajectories: at least
// quickstartMinTrajectories, then more while they fit in the run length.
func runQuickstart(cfg *config) (*outcome, error) {
	var gold goldenQuickstart
	if err := readGolden("golden_quickstart.json", &gold); err != nil {
		return nil, err
	}
	eval := &potential.RIMP2{Basis: "sto-3g"}
	o := &outcome{layers: map[string]float64{}}
	_, setupS, err := timeSetup(func() (*mdSetup, error) { return newQuickstart(cfg, eval, nil) }, nil)
	if err != nil {
		return nil, err
	}
	o.setupS = setupS

	// trajectory runs one fresh trajectory and checks it.
	trajectory := func(ev fragment.Evaluator, log *evalLog) (*stepClock, *mdSetup, error) {
		s, err := newQuickstart(cfg, ev, log)
		if err != nil {
			return nil, nil, err
		}
		clk := newStepClock(log, 0)
		_, err = s.eng.Run(s.state, quickstartSteps, clk.observe)
		o.attempted += quickstartSteps
		o.failed += quickstartSteps - len(clk.stats)
		for _, st := range clk.stats {
			g := gold.Trajectory[st.Step]
			if st.Step == 0 {
				o.checkClose("step0_epot_vs_golden.ha", st.Epot, float64(g.Epot), rimp2TolHa)
			}
			if cfg.seed == goldenSeed {
				o.checkClose("epot_vs_golden.ha", st.Epot, float64(g.Epot), rimp2TolHa)
				o.checkClose("etot_vs_golden.ha", st.Etot, float64(g.Etot), rimp2TolHa)
			}
		}
		return clk, s, err
	}

	if cfg.tr != nil {
		return o, traceQuickstart(cfg, o, eval, trajectory)
	}

	var intervals []float64
	var wall, last float64
	t0 := time.Now()
	for n := 0; n < quickstartMinTrajectories || fits(t0, last, cfg.seconds); n++ {
		clk, _, err := trajectory(eval, nil)
		if err != nil {
			o.notes = append(o.notes, "trajectory failed: "+err.Error())
			break
		}
		intervals = append(intervals, clk.intervals...)
		last = clk.wall()
		wall += last
	}
	if len(intervals) == 0 {
		return o, nil
	}
	o.opsPerS = float64(len(intervals)) / wall
	o.opP50ms = median(intervals) * 1e3
	o.named = append(o.named, namedMetric{"md_steps_per_s", o.opsPerS, "1/s"})
	o.addLatency("step", intervals, "s", 1)
	return o, nil
}

// traceQuickstart is the traced quickstart run: a replay of every
// distinct step-0 fragment through the layer calls (which also settles
// the autotuner), then one untraced and one traced trajectory, whose
// wall times give the tracing overhead.
func traceQuickstart(cfg *config, o *outcome, eval *potential.RIMP2,
	trajectory func(fragment.Evaluator, *evalLog) (*stepClock, *mdSetup, error)) error {
	s, err := newQuickstart(cfg, eval, nil)
	if err != nil {
		return err
	}
	if err := replayAll(cfg.tr, o.layers, s.frag, s.frag.Geom); err != nil {
		return err
	}
	ref, _, err := trajectory(eval, nil)
	if err != nil {
		return err
	}

	log := newEvalLog(cfg.tr, byAtomCount(3))
	var mem memUse
	mem.begin()
	clk, traced, err := trajectory(&timedEval{inner: eval, log: log}, log)
	if err != nil {
		return err
	}
	mem.end()
	wall := clk.wall()
	o.layers["trace.overhead_frac"] = wall/ref.wall() - 1
	mdLayers(o.layers, log, clk.stats, traced.eng.RunStats(), traced.eng.Cache(), wall, cfg.workers)
	mem.store(o.layers, len(clk.stats))
	tunerLayers(o.layers)
	return fragmentLayers(o.layers, newQuickstartFrag, statePos(traced.frag.Geom))
}

// mdLayers fills the potential, coord, sched and warmstart layers of a
// traced engine phase of the given wall time.
func mdLayers(m map[string]float64, log *evalLog, stats []sched.StepStats, rs coord.RunStats,
	cache *warmstart.Cache, wall float64, workers int) {
	log.layers(m, wall, workers)
	m["coord.retries"] = float64(rs.Retries)
	m["coord.speculated"] = float64(rs.Speculated)
	iters := 0
	for _, st := range stats {
		iters += st.SCFIters
	}
	if n := m["potential.evals"]; n > 0 {
		m["sched.scf_iters_per_eval"] = float64(iters) / n
	}
	if cache != nil {
		ws := cache.Stats()
		if ws.Hits+ws.Misses > 0 {
			m["warmstart.hit_ratio"] = float64(ws.Hits) / float64(ws.Hits+ws.Misses)
		}
		m["warmstart.skips"] = float64(ws.Skips)
	}
}

// tunerState counts the GEMM shapes the autotuner has seen and those
// still arbitrating.
func tunerState() (shapes, unlocked int) {
	snap := autotune.Default.Snapshot()
	for _, s := range snap {
		if !s.Locked {
			unlocked++
		}
	}
	return len(snap), unlocked
}

// tunerLayers records the autotuner state at the end of the timed phase.
func tunerLayers(m map[string]float64) {
	shapes, unlocked := tunerState()
	m["autotune.shapes"] = float64(shapes)
	m["autotune.unlocked"] = float64(unlocked)
}

// ---------------------------------------------------------------------
// rimp2-urea-cold

type goldenUrea struct {
	Energy   fnum   `json:"rimp2_energy_ha"`
	Gradient []fnum `json:"gradient_ha_bohr"`
}

// newUrea builds the single urea molecule of UreaCrystalSphere(3.0)
// under a seeded random rigid rotation and translation; it returns the
// rotation so gradients can be rotated back to the golden's frame.
func newUrea(seed int64) (*molecule.Geometry, [3][3]float64) {
	g := molecule.UreaCrystalSphere(3.0)
	rng := rand.New(rand.NewSource(seed))
	rot := randomRotation(rng)
	var shift [3]float64
	for k := range shift {
		shift[k] = 10 * (rng.Float64() - 0.5) // Bohr
	}
	for i := range g.Atoms {
		p := g.Atoms[i].Pos
		for r := 0; r < 3; r++ {
			g.Atoms[i].Pos[r] = rot[r][0]*p[0] + rot[r][1]*p[1] + rot[r][2]*p[2] + shift[r]
		}
	}
	return g, rot
}

// randomRotation draws a uniformly distributed rotation matrix from a
// random unit quaternion (Shoemake's method).
func randomRotation(rng *rand.Rand) [3][3]float64 {
	u1, u2, u3 := rng.Float64(), 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
	a, b := math.Sqrt(1-u1), math.Sqrt(u1)
	w, x, y, z := a*math.Sin(u2), a*math.Cos(u2), b*math.Sin(u3), b*math.Cos(u3)
	return [3][3]float64{
		{1 - 2*(y*y+z*z), 2 * (x*y - z*w), 2 * (x*z + y*w)},
		{2 * (x*y + z*w), 1 - 2*(x*x+z*z), 2 * (y*z - x*w)},
		{2 * (x*z - y*w), 2 * (y*z + x*w), 1 - 2*(x*x+y*y)},
	}
}

// runUreaCold calls the RI-MP2 energy plus analytic gradient of one
// urea molecule back to back — no engine, no warm-start cache — for the
// run length (see fits).
func runUreaCold(cfg *config) (*outcome, error) {
	var gold goldenUrea
	if err := readGolden("golden_urea_crystal.json", &gold); err != nil {
		return nil, err
	}
	o := &outcome{layers: map[string]float64{}}
	type ureaInput struct {
		g    *molecule.Geometry
		rot  [3][3]float64
		eval *potential.RIMP2
	}
	in, setupS, err := timeSetup(func() (ureaInput, error) {
		g, rot := newUrea(cfg.seed)
		return ureaInput{g, rot, &potential.RIMP2{Basis: "sto-3g"}}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	o.setupS = setupS

	evaluate := func(ev fragment.Evaluator) (float64, error) {
		o.attempted++
		t0 := time.Now()
		e, grad, err := ev.Evaluate(in.g)
		d := time.Since(t0).Seconds()
		if err != nil {
			o.failed++
			return 0, err
		}
		o.checkClose("energy_vs_golden.ha", e, float64(gold.Energy), rimp2TolHa)
		for i := 0; i < in.g.N(); i++ {
			for r := 0; r < 3; r++ {
				var back float64 // (Rᵀ g)_r
				for c := 0; c < 3; c++ {
					back += in.rot[c][r] * grad[3*i+c]
				}
				o.checkClose("gradient_vs_golden.ha_bohr", back, float64(gold.Gradient[3*i+r]), rimp2TolGrad)
			}
		}
		return d, nil
	}

	if cfg.tr != nil {
		return o, traceUrea(cfg, o, in.g, in.eval, evaluate)
	}

	var durs []float64
	var last float64
	t0 := time.Now()
	for fits(t0, last, cfg.seconds) {
		d, err := evaluate(in.eval)
		if err != nil {
			o.notes = append(o.notes, "evaluation failed: "+err.Error())
			break
		}
		durs = append(durs, d)
		last = d
	}
	if len(durs) == 0 {
		return o, nil
	}
	o.opsPerS = float64(len(durs)) / time.Since(t0).Seconds()
	o.opP50ms = median(durs) * 1e3
	o.named = append(o.named, namedMetric{"grad_evals_per_s", o.opsPerS, "1/s"})
	o.addLatency("grad", durs, "s", 1)
	return o, nil
}

// traceUrea replays the fragment through the layer calls, then
// alternates untraced and traced evaluations for the run length.
func traceUrea(cfg *config, o *outcome, g *molecule.Geometry, eval *potential.RIMP2,
	evaluate func(fragment.Evaluator) (float64, error)) error {
	res, err := replayFragment(cfg.tr, "replay-urea", g)
	if err != nil {
		return err
	}
	storeReplays(o.layers, "urea", []map[string]float64{res})

	log := newEvalLog(cfg.tr, func(*molecule.Geometry) string { return "urea" })
	timed := &timedEval{inner: eval, log: log}
	var plain, traced []float64
	var mem memUse
	t0 := time.Now()
	for len(traced) == 0 || time.Since(t0) < cfg.seconds {
		d, err := evaluate(eval)
		if err != nil {
			return err
		}
		plain = append(plain, d)
		mem.begin()
		d, err = evaluate(timed)
		if err != nil {
			return err
		}
		mem.end()
		traced = append(traced, d)
	}
	var wall float64
	for _, d := range traced {
		wall += d
	}
	log.layers(o.layers, wall, 1)
	o.layers["trace.overhead_frac"] = median(traced)/median(plain) - 1
	mem.store(o.layers, len(traced))
	tunerLayers(o.layers)
	return nil
}

// ---------------------------------------------------------------------
// Layer replay

// replayFragment evaluates g with the production RI-MP2 recipe
// (potential.RIMP2 defaults) and, beside it, calls each layer's public
// function on the same inputs. The production sequence is basis →
// scf.RHF (aux basis, 1e, screened 3c, 2c, metric, SCF iterations) →
// mp2.RIMP2 → Gradients (which include one 3c and one 2c derivative
// pass); the separately timed layer calls give the split, and
// scf.self_s is scf.RHF minus its replayed aux/integral/metric parts.
// The returned metric names lack the fragment-order suffix.
func replayFragment(tr *tracer, trace string, g *molecule.Geometry) (map[string]float64, error) {
	var err error
	root := tr.newID()
	start := time.Now()
	// Each call starts from a collected heap, so the concurrent GC of
	// the previous call's garbage does not land in its time.
	layer := func(name string, fn func()) float64 {
		runtime.GC()
		return tr.time(root, trace, name, fn)
	}
	var bs, aux *basis.Set
	orbS := layer("basis.build", func() { bs, err = basis.Build("sto-3g", g) })
	if err != nil {
		return nil, err
	}
	auxS := layer("basis.build_aux", func() { aux = basis.BuildAux(bs, g, basis.AuxOptions{}) })
	e1 := layer("integrals.1e", func() {
		integrals.Overlap(bs)
		integrals.Hcore(bs, g)
	})
	c3 := layer("integrals.3c", func() {
		integrals.ThreeCenterScreened(bs, aux, integrals.SchwarzShellPairs(bs), 1e-12)
	})
	var j2 *linalg.Mat
	c2 := layer("integrals.2c", func() { j2 = integrals.TwoCenter(aux) })
	metric := layer("metric.invsqrt", func() { linalg.InvSqrtSym(j2, 1e-10) })

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	flops0 := linalg.FLOPs()
	var ref *scf.Result
	rhfS := layer("scf.rhf", func() { ref, err = scf.RHF(g, bs, scf.Options{UseRI: true}) })
	if err != nil {
		return nil, err
	}
	var res *mp2.Result
	mp2E := layer("mp2.energy", func() { res, err = mp2.RIMP2(ref, mp2.Options{}) })
	if err != nil {
		return nil, err
	}
	mp2G := layer("mp2.gradient", func() { _, _, err = res.Gradients() })
	if err != nil {
		return nil, err
	}
	gflop := float64(linalg.FLOPs()-flops0) / 1e9
	runtime.ReadMemStats(&ms1)
	total := orbS + rhfS + mp2E + mp2G

	grad := make([]float64, 3*g.N())
	d3 := layer("integrals.3c_deriv", func() {
		integrals.ThreeCenterDeriv(bs, ref.Aux, ref.CTilde(), 1, grad)
	})
	d2 := layer("integrals.2c_deriv", func() { integrals.TwoCenterDeriv(ref.Aux, ref.J2, 1, grad) })
	tr.add(root, 0, trace, "replay.fragment", start, time.Now())
	return map[string]float64{
		"basis.build_s":        orbS + auxS,
		"integrals.1e_s":       e1,
		"integrals.3c_s":       c3,
		"integrals.2c_s":       c2,
		"metric.invsqrt_s":     metric,
		"metric.share":         metric / total,
		"scf.self_s":           rhfS - auxS - e1 - c3 - c2 - metric,
		"scf.iters":            float64(ref.Iters),
		"mp2.energy_s":         mp2E,
		"mp2.gradient_s":       mp2G,
		"integrals.3c_deriv_s": d3,
		"integrals.2c_deriv_s": d2,
		"gemm.gflop":           gflop,
		"gemm.gflop_per_s":     gflop / total,
		"alloc_mb":             float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
	}, nil
}

// storeReplays writes the per-key medians of one fragment order's
// replays under the order suffix.
func storeReplays(m map[string]float64, order string, rs []map[string]float64) {
	for k := range rs[0] {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r[k]
		}
		m[k+"."+order] = median(xs)
	}
}

// replayAll replays every polymer of f at the positions of g and stores
// the per-order medians.
func replayAll(tr *tracer, m map[string]float64, f *fragment.Fragmentation, g *molecule.Geometry) error {
	byOrder := map[string][]map[string]float64{}
	for _, p := range f.Terms().All() {
		ex := f.ExtractAt(p, statePos(g))
		r, err := replayFragment(tr, "replay-"+p.Key(), ex.Geom)
		if err != nil {
			return fmt.Errorf("replay %s: %w", p.Key(), err)
		}
		o := orderNames[p.Order()]
		byOrder[o] = append(byOrder[o], r)
	}
	for o, rs := range byOrder {
		storeReplays(m, o, rs)
	}
	return nil
}
