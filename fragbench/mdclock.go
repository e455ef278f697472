package main

import (
	"time"

	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/neighbor"
	"github.com/fragmd/fragmd/internal/sched"
)

// stepClock observes an engine run: the time each step finalized (in
// step order), the interval since the previous one — the time per MD
// step of an asynchronous trajectory, whose steps overlap — and the
// step statistics. With an evalLog it also records one span per step.
type stepClock struct {
	start     time.Time
	last      time.Time
	intervals []float64
	stats     []sched.StepStats
	log       *evalLog // nil when untraced
	offset    int32    // global index of this run's step 0
}

func newStepClock(log *evalLog, offset int32) *stepClock {
	now := time.Now()
	return &stepClock{start: now, last: now, log: log, offset: offset}
}

func (c *stepClock) observe(st sched.StepStats) {
	now := time.Now()
	c.intervals = append(c.intervals, now.Sub(c.last).Seconds())
	c.stats = append(c.stats, st)
	if c.log != nil && c.log.tr != nil {
		sp := c.log.stepSpan(c.offset + int32(st.Step))
		c.log.tr.add(sp.id, 0, sp.trace, "md.step", c.last, now)
	}
	c.last = now
}

// wall is the time from the run's start to its last finalized step.
func (c *stepClock) wall() float64 { return c.last.Sub(c.start).Seconds() }

// fragmentLayers times the fragmentation layer from outside: polymer
// enumeration, ExtractAt over every polymer at the current positions,
// and the neighbour enumeration over the monomer centroids at the
// fragmentation's own cutoffs.
func fragmentLayers(m map[string]float64, build func() (*fragment.Fragmentation, error), pos func(int) [3]float64) error {
	t0 := time.Now()
	f, err := build()
	if err != nil {
		return err
	}
	all := f.Terms().All()
	m["fragment.build_s"] = time.Since(t0).Seconds()
	m["fragment.polymers"] = float64(len(all))

	ex := make([]float64, len(all))
	for i, p := range all {
		t := time.Now()
		f.ExtractAt(p, pos)
		ex[i] = time.Since(t).Seconds()
	}
	m["fragment.extract_us_p50"] = median(ex) * 1e6

	cents := make([][3]float64, len(f.Monomers))
	for i := range cents {
		cents[i] = f.Centroid(i)
	}
	var src neighbor.Source = neighbor.New(cents)
	if c := f.Geom.Cell; c != nil {
		src = neighbor.NewPeriodic(cents, c.L)
	}
	t1 := time.Now()
	src.Pairs(f.Opts.DimerCutoff, func(i, j int) bool { return true })
	m["neighbor.pairs_s"] = time.Since(t1).Seconds()
	t2 := time.Now()
	src.Triples(f.Opts.TrimerCutoff, func(i, j, k int) bool { return true })
	m["neighbor.triples_s"] = time.Since(t2).Seconds()
	return nil
}

// statePos reads atom positions from a geometry.
func statePos(g *molecule.Geometry) func(int) [3]float64 {
	return func(a int) [3]float64 { return g.Atoms[a].Pos }
}
