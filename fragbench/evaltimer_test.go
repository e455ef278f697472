package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"github.com/fragmd/fragmd/internal/autotune"
	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/sched"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// trajectory runs steps of a one-worker warm-started engine over g and
// returns the step statistics and the warm-start counters.
func trajectory(t *testing.T, g *molecule.Geometry, eval fragment.Evaluator, embed *fragment.EmbedOptions, steps int) ([]sched.StepStats, warmstart.Stats) {
	t.Helper()
	f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sched.New(f, eval, sched.Options{Workers: 1, Async: true, WarmStart: true,
		Dt: dtFs * chem.AtomicTimePerFs, Embed: embed})
	if err != nil {
		t.Fatal(err)
	}
	state := md.NewState(f.Geom.Clone())
	state.SampleVelocities(tempK, rand.New(rand.NewSource(7)))
	stats, err := eng.Run(state, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stats, eng.Cache().Stats()
}

// With one worker (a single completion order), an engine whose
// evaluator is wrapped in timedEval must reproduce the unwrapped
// trajectory bit for bit, with equal warm-start counters: the wrapper
// forwards warm start, embedding and charges, so the benchmark's traced
// runs measure the same program as its untraced ones.
func TestTimedEvalReproducesTrajectory(t *testing.T) {
	lj := &potential.LennardJones{}
	ljq := &potential.LennardJones{Charges: map[int]float64{8: -0.8, 1: 0.4}}
	cases := []struct {
		name  string
		g     *molecule.Geometry
		eval  fullEvaluator
		embed *fragment.EmbedOptions
		steps int
		slow  bool
	}{
		{"lj-warm", molecule.WaterCluster(4), lj, nil, 6, false},
		{"lj-embedded", molecule.WaterCluster(4), ljq, &fragment.EmbedOptions{SCC: 1, Damping: 0.3}, 4, false},
		{"rimp2-warm", molecule.WaterDimer(2.98), &potential.RIMP2{Basis: "sto-3g"}, nil, 2, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.slow {
				if testing.Short() {
					t.Skip("RI-MP2 trajectory is slow; run without -short")
				}
				// Timing-based kernel arbitration would differ between
				// the two runs, and the integral gradient reductions sum
				// per-goroutine partials in completion order (a known
				// core-count dependence); pin both, so the two runs
				// differ only by the wrapper.
				was := autotune.Default.Enabled
				autotune.Default.Enabled = false
				procs := runtime.GOMAXPROCS(1)
				defer func() {
					autotune.Default.Enabled = was
					runtime.GOMAXPROCS(procs)
				}()
			}
			want, wantWS := trajectory(t, c.g, c.eval, c.embed, c.steps)
			log := newEvalLog(newTracer(), byAtomCount(3))
			got, gotWS := trajectory(t, c.g, &timedEval{inner: c.eval, log: log}, c.embed, c.steps)
			if len(got) != len(want) {
				t.Fatalf("wrapped run finalized %d steps, unwrapped %d", len(got), len(want))
			}
			for i := range want {
				w, g := want[i], got[i]
				if w.Epot != g.Epot || w.Ekin != g.Ekin || w.Etot != g.Etot ||
					w.SCFIters != g.SCFIters || w.Skipped != g.Skipped {
					t.Errorf("step %d: wrapped %+v, unwrapped %+v", i, g, w)
				}
			}
			if gotWS != wantWS {
				t.Errorf("warm-start counters: wrapped %+v, unwrapped %+v", gotWS, wantWS)
			}
			if wantWS.Hits == 0 {
				t.Errorf("no warm-start hits: the case does not exercise warm start")
			}
			if len(log.all) == 0 {
				t.Errorf("wrapper logged no evaluations")
			}
		})
	}
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestBenchmarkManifestMatchesMetrics(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, w := range manifest.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("manifest workload %q has no implementation", w.Name)
		}
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, program has %d", len(manifest.Workloads), len(workloads))
	}
	e2e := endToEnd
	if len(manifest.EndToEnd) != len(e2e) {
		t.Fatalf("manifest has %d end-to-end metrics, program reports %d", len(manifest.EndToEnd), len(e2e))
	}
	for i, m := range e2e {
		if got := manifest.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s (%s), program reports %s (%s)", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	layers := layerMetrics()
	if len(manifest.PerLayer) != len(layers) {
		t.Fatalf("manifest has %d per-layer metrics, program reports %d", len(manifest.PerLayer), len(layers))
	}
	for i, m := range layers {
		if got := manifest.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per_layer[%d] = %s (%s), program reports %s (%s)", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}
