package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for a tail latency, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// tail returns the highest candidate percentile that leaves at least ten
// samples above it, or ok=false when the sample is too small for any.
func tail(xs []float64) (pct, v float64, ok bool) {
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(len(xs))))
		if len(xs)-rank >= 10 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

// addLatency appends the median and, when the sample supports one, the
// tail of xs (seconds) to o's named end-to-end metrics, scaled to unit.
func (o *outcome) addLatency(prefix string, xs []float64, unit string, scale float64) {
	o.named = append(o.named, namedMetric{prefix + "_p50_" + unit, median(xs) * scale, unit})
	if p, v, ok := tail(xs); ok {
		o.named = append(o.named, namedMetric{prefix + "_tail_" + unit, v * scale, unit})
		o.notes = append(o.notes, fmt.Sprintf("%s_tail_%s is p%g of n=%d", prefix, unit, p, len(xs)))
	} else {
		o.notes = append(o.notes, fmt.Sprintf("%s_tail_%s omitted: n=%d leaves fewer than 10 samples above p90",
			prefix, unit, len(xs)))
	}
}

// memUse accumulates heap allocation and GC cycles over the timed
// phases bracketed by begin and end.
type memUse struct {
	alloc uint64
	gcs   uint32
	start runtime.MemStats
}

func (u *memUse) begin() { runtime.ReadMemStats(&u.start) }

func (u *memUse) end() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.alloc += ms.TotalAlloc - u.start.TotalAlloc
	u.gcs += ms.NumGC - u.start.NumGC
}

// store writes the runtime layer for ops operations.
func (u *memUse) store(m map[string]float64, ops int) {
	if ops > 0 {
		m["runtime.alloc_mb_per_step"] = float64(u.alloc) / 1e6 / float64(ops)
	}
	m["runtime.gc_cycles"] = float64(u.gcs)
}

// fits reports whether another whole unit of work (a trajectory, a
// gradient evaluation) belongs in a run that started at t0: the first
// always runs, a later one only if a unit as long as the last one still
// ends within the run length. Units of many seconds thus never overrun
// it, and the run time does not jump by a whole unit from run to run.
func fits(t0 time.Time, last float64, length time.Duration) bool {
	return last == 0 || time.Since(t0).Seconds()+last <= length.Seconds()
}

// Set-up is repeated at least setupMinReps times and until setupBudget
// has passed (at most setupMaxReps times), so microsecond set-ups get
// a median over many repetitions and heavy ones over a few.
const (
	setupMinReps = 5
	setupMaxReps = 1001
	setupBudget  = 500 * time.Millisecond
)

// timeSetup repeats build and returns the last instance and the median
// duration in seconds; every earlier instance is passed to discard.
func timeSetup[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var ds []float64
	start := time.Now()
	for i := 0; i < setupMinReps || (i < setupMaxReps && time.Since(start) < setupBudget); i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		runtime.GC() // each repetition starts from a collected heap
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		last = v
	}
	return last, median(ds), nil
}
