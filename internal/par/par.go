// Package par is the one worker pool every fan-out in the pipeline
// shares: extraction rows and layer preparation, the Eclat root walk,
// vertical support counting, both co-location phases and the subtrees
// of an index.Layer join. Workers claim
// indices off one atomic counter, so there is no feeder goroutine to
// wait on and a slow index never holds up the rest of the pool.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a pool width for n units of work: 0 means
// GOMAXPROCS, anything below 1 means one worker, and the pool is never
// wider than n. The result is always at least 1, so it can size
// per-worker scratch even when n is 0. No request or flag sets a width:
// every pool passes 0 or a width derived from GOMAXPROCS, except that a
// Go caller may narrow extraction with transact.Options.Parallelism.
func Workers(parallelism, n int) int {
	w := parallelism
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, n))
}

// For calls fn(worker, i) once for every i in [0, n), on workers
// goroutines that each check ctx and then claim the next index off one
// shared atomic counter; worker lies in [0, workers) and indexes any
// per-worker scratch. With one worker the loop runs on the caller's
// goroutine. For returns ctx.Err() once every worker has exited, so a
// nil error means every index ran; on cancellation the indices not yet
// claimed never run. Size workers with Workers.
//
// Per-worker slots that sit side by side in a slice share cache lines,
// so fn should copy a slot it writes in a hot loop into a local and
// store it back once per index.
func For(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(0, i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
