package par

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

const testGrain = 7

// TestForVisitsEachIndexOnce checks that the chunks of For tile [0, n)
// exactly, at sizes around the grain and past the chunk cap, and at
// several core counts.
func TestForVisitsEachIndexOnce(t *testing.T) {
	sizes := []int{0, 1, testGrain - 1, testGrain, testGrain + 1, 10007}
	for _, procs := range []int{1, 2, 4, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range sizes {
			hits := make([]atomic.Int32, n)
			For(n, testGrain, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("n=%d: empty chunk [%d, %d)", n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: index %d visited %d times", procs, n, i, h)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestChunksIgnoreCoreCount records the chunk boundaries For produces
// and checks they are the same at every core count.
func TestChunksIgnoreCoreCount(t *testing.T) {
	const n = 1000
	bounds := func() []int {
		starts := make([]atomic.Int32, n)
		For(n, testGrain, func(lo, hi int) { starts[lo].Store(int32(hi)) })
		out := make([]int, n)
		for i := range starts {
			out[i] = int(starts[i].Load())
		}
		return out
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	want := bounds()
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got := bounds()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS=%d: chunk starting at %d ends at %d, want %d", procs, i, got[i], want[i])
			}
		}
	}
}

// summand mixes ±1e16 terms with O(1) values, so the rounded sum
// depends on the order of the additions.
func summand(i int) float64 {
	switch i % 3 {
	case 0:
		return 1e16
	case 1:
		return 1 + float64(i%11)/7
	default:
		return -1e16 + float64(i%5)/3
	}
}

// TestReduceBitwiseAcrossCoreCounts reduces order-sensitive summands
// into two destinations that start non-zero and requires bitwise-equal
// results at GOMAXPROCS 1–8.
func TestReduceBitwiseAcrossCoreCounts(t *testing.T) {
	const n = 5000
	reduce := func() (a, b []float64) {
		a = []float64{0.1, -3, 1e-9}
		b = []float64{2.5}
		Reduce(n, testGrain, func(lo, hi int, part [][]float64) {
			for i := lo; i < hi; i++ {
				part[0][i%3] += summand(i)
				part[1][0] -= summand(i) / 3
			}
		}, a, b)
		return a, b
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	wantA, wantB := reduce()
	for procs := 1; procs <= 8; procs++ {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			a, b := reduce()
			got := append(a, b...)
			want := append(append([]float64(nil), wantA...), wantB...)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("GOMAXPROCS=%d rep %d: element %d = %v, want %v", procs, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReduceNilDestination checks that a nil destination gets an empty
// partial and leaves the other destinations' sums intact.
func TestReduceNilDestination(t *testing.T) {
	a := make([]float64, 1)
	Reduce(100, testGrain, func(lo, hi int, part [][]float64) {
		if len(part[1]) != 0 {
			t.Errorf("nil destination got a %d-element partial", len(part[1]))
		}
		part[0][0] += float64(hi - lo)
	}, a, nil)
	if a[0] != 100 {
		t.Fatalf("sum = %v, want 100", a[0])
	}
}
