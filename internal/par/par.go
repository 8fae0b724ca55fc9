// Package par provides the shared parallel-execution primitives of the VFL
// runtime: the process-wide parallelism degree and a chunked, context-aware
// parallel for-loop used by the HE vector kernels and the protocol fan-out
// paths.
//
// Degree 1 always restores fully serial execution, which determinism tests
// rely on; any higher degree must not change results, only wall-clock time.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// chunk is the largest number of loop iterations handed to a worker at a
// time, and the interval at which the serial path polls ctx. Items on the HE
// hot path cost ~ms each, so a small chunk keeps the load balanced without
// measurable dispatch overhead.
const chunk = 8

// Degree returns the default parallelism, runtime.GOMAXPROCS(0).
func Degree() int { return runtime.GOMAXPROCS(0) }

// Normalize resolves a parallelism setting: values <= 0 mean "use Degree()".
func Normalize(n int) int {
	if n <= 0 {
		return Degree()
	}
	return n
}

// For runs fn(i) for every i in [0, n) using up to workers goroutines
// (workers <= 0 means Degree(); workers == 1 runs serially on the calling
// goroutine). Iterations are dispatched in chunks of min(8, ⌈n/workers⌉),
// so a vector shorter than workers×8 — a packed HE vector is a handful of
// ciphertexts — still spreads over every worker, and ctx is polled between
// chunks, so a cancelled context stops the loop within one chunk rather than
// after all n iterations.
//
// Once an iteration fails, no index above the lowest failed one starts: a
// chunk claimed after the failure lies above it and is dropped, and a running
// chunk stops at it. Chunks are claimed in index order, so every lower index
// has already been claimed and still runs: the error returned is the
// lowest-indexed one, exactly the error a serial loop would surface. If
// ctx is cancelled before every iteration ran, the context error is returned
// unless an fn error at a lower index precedes it.
func For(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Normalize(workers)
	size := min(chunk, (n+workers-1)/workers)
	workers = min(workers, (n+size-1)/size) // every worker gets a chunk
	if workers == 1 {
		for i := 0; i < n; i++ {
			if i%size == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		failed   atomic.Int64 // lowest failed index; n while none has failed
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	failed.Store(int64(n))
	record := func(i int, err error) {
		mu.Lock()
		if int64(i) < failed.Load() {
			failed.Store(int64(i))
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					return
				}
				start := int(next.Add(int64(size))) - size
				if start >= n || int64(start) > failed.Load() {
					return // past the end, or above an index that failed
				}
				end := min(start+size, n)
				for i := start; i < end && int64(i) < failed.Load(); i++ {
					if err := fn(i); err != nil {
						record(i, err)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
