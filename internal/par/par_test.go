package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		parallelism, n, want int
	}{
		{0, 1 << 20, procs},
		{0, 1, 1},
		{0, 0, 1},
		{-1, 100, 1},
		{-1 << 20, 100, 1},
		{1, 100, 1},
		{4, 100, 4},
		{4, 3, 3},
		{1 << 17, 4, 4},
		{7, 0, 1},
		{-3, 0, 1},
	} {
		if got := Workers(tc.parallelism, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.parallelism, tc.n, got, tc.want)
		}
	}
}

// TestWorkersFollowsGOMAXPROCS: no request or flag sets a width, so
// every pool passes 0 and is exactly GOMAXPROCS wide, capped by its
// work, at whatever GOMAXPROCS the process runs with.
func TestWorkersFollowsGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 9} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, tc := range []struct{ n, want int }{
				{1 << 20, procs},
				{procs, procs},
				{procs + 1, procs},
				{3, min(procs, 3)},
				{1, 1},
				{0, 1},
			} {
				if got := Workers(0, tc.n); got != tc.want {
					t.Errorf("Workers(0, %d) = %d, want %d", tc.n, got, tc.want)
				}
			}
		})
	}
}

// TestForRunsEveryIndexOnce: every index in [0, n) runs exactly once,
// on a worker index inside the pool, whether the pool is narrower or
// wider than the work.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000} {
		for _, workers := range []int{1, 2, 7, 2000} {
			runs := make([]atomic.Int32, n)
			var badWorker atomic.Int32
			err := For(context.Background(), n, workers, func(w, i int) {
				if w < 0 || w >= workers {
					badWorker.Store(1)
				}
				runs[i].Add(1)
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if badWorker.Load() != 0 {
				t.Fatalf("n=%d workers=%d: a worker index fell outside [0, %d)", n, workers, workers)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// cancelAfterCtx is a context whose Err flips to context.Canceled after
// a fixed number of polls, a deterministic cancellation point without
// timing races. Value/Deadline/Done delegate to the embedded context.
type cancelAfterCtx struct {
	context.Context
	mu    sync.Mutex
	left  int
	fired bool
}

func (c *cancelAfterCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fired {
		return context.Canceled
	}
	c.left--
	if c.left <= 0 {
		c.fired = true
		return context.Canceled
	}
	return nil
}

// TestForStopsOnCancel: For polls ctx before every claim, so a context
// that cancels after k polls stops the pool after at most k + workers
// calls (each worker may hold one claim made before the flip) and For
// reports context.Canceled.
func TestForStopsOnCancel(t *testing.T) {
	const n = 10000
	for _, workers := range []int{1, 2, 7} {
		for _, k := range []int{1, 5, 100} {
			ctx := &cancelAfterCtx{Context: context.Background(), left: k}
			var calls atomic.Int64
			err := For(ctx, n, workers, func(_, _ int) { calls.Add(1) })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d k=%d: err = %v, want context.Canceled", workers, k, err)
			}
			if c := calls.Load(); c > int64(k+workers) {
				t.Fatalf("workers=%d k=%d: %d calls after cancellation, want at most %d", workers, k, c, k+workers)
			}
		}
	}
}
