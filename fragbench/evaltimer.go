package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/fragmd/fragmd/internal/coord"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/integrals"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// fullEvaluator is the evaluator surface sched type-asserts for: warm
// start (StatefulEvaluator), embedding (EmbeddedEvaluator) and EE-MBE
// charges (ChargeSource). Every built-in potential implements all
// three, and a timing wrapper must too: one that dropped
// StatefulEvaluator would silently turn warm start off and measure a
// different program.
type fullEvaluator interface {
	fragment.StatefulEvaluator
	fragment.EmbeddedEvaluator
	fragment.ChargeSource
}

// timedEval sits between the engine and the potential and logs the
// duration of every call.
type timedEval struct {
	inner fullEvaluator
	log   *evalLog
}

var _ fullEvaluator = (*timedEval)(nil)

func (t *timedEval) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	start := time.Now()
	e, grad, err := t.inner.Evaluate(g)
	t.log.record(g, start, time.Now())
	return e, grad, err
}

func (t *timedEval) EvaluateFrom(g *molecule.Geometry, prev *warmstart.State) (float64, []float64, *warmstart.State, error) {
	start := time.Now()
	e, grad, st, err := t.inner.EvaluateFrom(g, prev)
	t.log.record(g, start, time.Now())
	return e, grad, st, err
}

func (t *timedEval) EvaluateEmbedded(g *molecule.Geometry, field *integrals.PointCharges, prev *warmstart.State) (float64, []float64, []float64, *warmstart.State, error) {
	start := time.Now()
	e, grad, fg, st, err := t.inner.EvaluateEmbedded(g, field, prev)
	t.log.record(g, start, time.Now())
	return e, grad, fg, st, err
}

func (t *timedEval) PartialCharges(g *molecule.Geometry, field *integrals.PointCharges) ([]float64, int, error) {
	start := time.Now()
	q, iters, err := t.inner.PartialCharges(g, field)
	t.log.record(g, start, time.Now())
	return q, iters, err
}

// orderNames maps a polymer's monomer count to its metric suffix.
var orderNames = map[int]string{1: "monomer", 2: "dimer", 3: "trimer"}

// evalLog aggregates evaluator calls: durations per fragment order, the
// busy-time sum, and (with a tracer) one span per call attributed to
// the MD step that dispatched it. The engine's dispatch hook pushes
// each task's step onto a per-order FIFO and each evaluation pops the
// oldest entry of its order; with ≤ nproc tasks in flight this pairs a
// call with its step except when two same-order tasks of adjacent steps
// are in flight at once.
type evalLog struct {
	tr       *tracer
	classify func(*molecule.Geometry) string

	mu         sync.Mutex
	durs       map[string][]float64 // seconds, per order
	all        []float64
	busy       float64
	dispatches int
	polyOrder  []string           // polymer index → order, for dispatch
	pending    map[string][]int32 // dispatched steps awaiting evaluation
	steps      map[int32]stepSpan // reserved step spans
}

func newEvalLog(tr *tracer, classify func(*molecule.Geometry) string) *evalLog {
	return &evalLog{tr: tr, classify: classify, durs: map[string][]float64{},
		pending: map[string][]int32{}, steps: map[int32]stepSpan{}}
}

// byAtomCount classifies a fragment by its atom count, for systems built
// from identical monomers of n atoms with no H caps.
func byAtomCount(n int) func(*molecule.Geometry) string {
	return func(g *molecule.Geometry) string { return orderNames[g.N()/n] }
}

// watch attaches the log to a fragmentation's polymer list (engine task
// indices index Terms().All()) and returns the engine dispatch hook.
func (l *evalLog) watch(f *fragment.Fragmentation) func(coord.Task, coord.DispatchMeta) {
	for _, p := range f.Terms().All() {
		l.polyOrder = append(l.polyOrder, orderNames[p.Order()])
	}
	return func(t coord.Task, _ coord.DispatchMeta) {
		l.mu.Lock()
		l.dispatches++
		o := l.polyOrder[t.Poly]
		l.pending[o] = append(l.pending[o], t.Step)
		l.mu.Unlock()
	}
}

// stepSpan is the span id and trace id reserved for one MD step.
type stepSpan struct {
	id    int64
	trace string
}

// stepSpan returns the span reserved for MD step s.
func (l *evalLog) stepSpan(s int32) stepSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stepSpanLocked(s)
}

func (l *evalLog) stepSpanLocked(s int32) stepSpan {
	sp, ok := l.steps[s]
	if !ok {
		sp = stepSpan{l.tr.newID(), fmt.Sprintf("step-%d", s)}
		l.steps[s] = sp
	}
	return sp
}

func (l *evalLog) record(g *molecule.Geometry, start, end time.Time) {
	d := end.Sub(start).Seconds()
	o := l.classify(g)
	l.mu.Lock()
	l.durs[o] = append(l.durs[o], d)
	l.all = append(l.all, d)
	l.busy += d
	if l.tr == nil {
		l.mu.Unlock()
		return
	}
	parent := stepSpan{trace: "eval"}
	if q := l.pending[o]; len(q) > 0 {
		parent = l.stepSpanLocked(q[0])
		l.pending[o] = q[1:]
	}
	l.mu.Unlock()
	l.tr.add(l.tr.newID(), parent.id, parent.trace, "potential.eval."+o, start, end)
}

// layers writes the potential.* and coord.* per-layer metrics for a
// phase of the given wall time with the given worker count.
func (l *evalLog) layers(m map[string]float64, wall float64, workers int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m["potential.evals"] = float64(len(l.all))
	for _, o := range fragmentOrders {
		m["potential.eval_p50_s."+o] = median(l.durs[o])
	}
	m["potential.eval_p50_us"] = median(l.all) * 1e6
	capacity := float64(workers) * wall
	if capacity > 0 {
		m["potential.busy_frac"] = l.busy / capacity
	}
	if l.dispatches > 0 {
		m["coord.dispatches"] = float64(l.dispatches)
		m["coord.overhead_us_per_task"] = (capacity - l.busy) / float64(l.dispatches) * 1e6
	}
}
