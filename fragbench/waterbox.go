package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
)

const (
	boxEdge  = 10  // waters per box edge
	boxCutA  = 4.0 // dimer and trimer centroid cutoffs, Å
	boxTolHa = 1e-8

	// boxRunSteps bounds one untraced engine run, which the run-length
	// deadline normally cancels long before; the policy's completion
	// bitset grows with it (polymers × steps bits).
	boxRunSteps = 4000
	// boxBlockSteps is one traced-run block: traced and untraced
	// blocks alternate to measure the tracing overhead.
	boxBlockSteps = 10
)

func newWaterBoxFrag(seed int64) (*fragment.Fragmentation, error) {
	cut := boxCutA * chem.BohrPerAngstrom
	return fragment.ByMolecule(molecule.WaterBox(boxEdge, boxEdge, boxEdge, seed), 3, 1,
		fragment.Options{DimerCutoff: cut, TrimerCutoff: cut})
}

// newWaterBox builds the periodic LJ water box: MBE3 with 4 Å cutoffs
// through the cell list, async engine, seeded lattice jitter and
// velocities.
func newWaterBox(cfg *config, eval fragment.Evaluator, log *evalLog) (*mdSetup, error) {
	frag, err := newWaterBoxFrag(cfg.seed)
	if err != nil {
		return nil, err
	}
	opts := sched.Options{Workers: cfg.workers, Async: true, Dt: dtFs * chem.AtomicTimePerFs}
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

// runWaterBox runs one long trajectory and cancels it when the run
// length is spent; the steps finalized by then are the measurement.
func runWaterBox(cfg *config) (*outcome, error) {
	eval := &potential.LennardJones{}
	o := &outcome{layers: map[string]float64{}}
	s, setupS, err := timeSetup(func() (*mdSetup, error) { return newWaterBox(cfg, eval, nil) }, nil)
	if err != nil {
		return nil, err
	}
	o.setupS = setupS
	ref, err := s.frag.Compute(eval)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	checkStep0 := func(clk *stepClock) {
		if len(clk.stats) > 0 && clk.stats[0].Step == 0 {
			o.checkClose("step0_epot_vs_serial.ha", clk.stats[0].Epot, ref.Energy, boxTolHa)
		}
	}

	if cfg.tr != nil {
		return o, traceWaterBox(cfg, o, s, eval, checkStep0)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds)
	defer cancel()
	clk := newStepClock(nil, 0)
	_, err = s.eng.RunContext(ctx, s.state, boxRunSteps, clk.observe)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		o.attempted++
		o.failed++
		o.notes = append(o.notes, "run failed: "+err.Error())
	}
	o.attempted += len(clk.stats)
	checkStep0(clk)
	if len(clk.stats) == 0 {
		return o, nil
	}
	o.opsPerS = float64(len(clk.stats)) / clk.wall()
	o.opP50ms = median(clk.intervals) * 1e3
	o.named = append(o.named, namedMetric{"md_steps_per_s", o.opsPerS, "1/s"})
	o.addLatency("step", clk.intervals, "s", 1)
	return o, nil
}

// traceWaterBox alternates untraced and traced blocks of boxBlockSteps
// steps on one trajectory (two engines over the same fragmentation and
// state) for the run length, then times the fragmentation and neighbour
// layers from outside.
func traceWaterBox(cfg *config, o *outcome, s *mdSetup, eval *potential.LennardJones, checkStep0 func(*stepClock)) error {
	log := newEvalLog(cfg.tr, byAtomCount(3))
	opts := s.eng.Opts
	opts.TraceDispatch = log.watch(s.frag)
	traced, err := sched.New(s.frag, &timedEval{inner: eval, log: log}, opts)
	if err != nil {
		return err
	}
	var plain, perStep []float64
	var stats []sched.StepStats
	var rs coord.RunStats
	var wall float64
	var mem memUse
	var offset int32
	t0 := time.Now()
	for len(perStep) == 0 || time.Since(t0) < cfg.seconds {
		clk := newStepClock(nil, offset)
		if _, err := s.eng.Run(s.state, boxBlockSteps, clk.observe); err != nil {
			return err
		}
		if offset == 0 {
			checkStep0(clk)
		}
		plain = append(plain, clk.wall()/boxBlockSteps)
		offset += boxBlockSteps - 1 // a block's step 0 re-evaluates the previous block's last step

		mem.begin()
		clk = newStepClock(log, offset)
		if _, err := traced.Run(s.state, boxBlockSteps, clk.observe); err != nil {
			return err
		}
		mem.end()
		perStep = append(perStep, clk.wall()/boxBlockSteps)
		wall += clk.wall()
		stats = append(stats, clk.stats...)
		r := traced.RunStats()
		rs.Retries += r.Retries
		rs.Speculated += r.Speculated
		offset += boxBlockSteps - 1
		o.attempted += 2 * boxBlockSteps
	}
	mdLayers(o.layers, log, stats, rs, nil, wall, cfg.workers)
	mem.store(o.layers, len(stats))
	tunerLayers(o.layers)
	o.layers["trace.overhead_frac"] = median(perStep)/median(plain) - 1
	return fragmentLayers(o.layers, func() (*fragment.Fragmentation, error) { return newWaterBoxFrag(cfg.seed) },
		statePos(s.state.Geom))
}
