// Package par is the one data-parallel loop behind the integral and
// GEMM kernels. A loop over [0, n) is cut into chunks whose boundaries
// depend only on n and the caller's grain, never on GOMAXPROCS, and the
// chunks are handed out dynamically to at most GOMAXPROCS goroutines.
// Reduce adds per-chunk partials into its destination in chunk-index
// order, so sums are bitwise identical at every core count and on every
// run.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxChunks caps the chunk count, so a Reduce holds a bounded number of
// partial buffers however large n is. It is a fixed constant, not a
// function of the core count, because chunk boundaries set the
// reduction order.
const maxChunks = 64

// chunkSize returns the chunk length for a loop of n items: grain,
// raised where needed so that at most maxChunks chunks cover [0, n).
func chunkSize(n, grain int) int {
	return max(grain, 1, (n+maxChunks-1)/maxChunks)
}

// For calls body(lo, hi) once for each chunk [lo, hi) of [0, n); a
// chunk holds at least grain items unless it is the last. Chunks may run
// concurrently, so body must write only outputs that no other chunk
// writes. For returns once every chunk has finished.
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	size := chunkSize(n, grain)
	run((n+size-1)/size, func(c int) {
		lo := c * size
		body(lo, min(lo+size, n))
	})
}

// Reduce is For with per-chunk accumulators: body(lo, hi, part) gets
// part[i], a zeroed buffer of len(dst[i]) owned by that chunk alone.
// Once every chunk has finished, Reduce adds the partials into dst in
// chunk-index order, so dst[i][j] receives the same additions in the
// same order at any GOMAXPROCS. A nil dst[i] gets an empty buffer.
func Reduce(n, grain int, body func(lo, hi int, part [][]float64), dst ...[]float64) {
	size := chunkSize(n, grain)
	parts := make([][][]float64, (max(n, 0)+size-1)/size)
	For(n, grain, func(lo, hi int) {
		part := make([][]float64, len(dst))
		for i, d := range dst {
			part[i] = make([]float64, len(d))
		}
		body(lo, hi, part)
		parts[lo/size] = part
	})
	for _, part := range parts {
		for i, d := range dst {
			for j, v := range part[i] {
				d[j] += v
			}
		}
	}
}

// run calls task(c) for every c in [0, chunks), handing the indices out
// in increasing order to at most GOMAXPROCS goroutines, and returns once
// all calls have finished. With one goroutine the calls run inline.
func run(chunks int, task func(c int)) {
	workers := min(runtime.GOMAXPROCS(0), chunks)
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			task(c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
				task(c)
			}
		}()
	}
	wg.Wait()
}
