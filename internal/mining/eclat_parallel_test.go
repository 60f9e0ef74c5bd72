package mining

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/itemset"
	"repro/internal/obs"
)

// withProcs runs fn with GOMAXPROCS set to procs, the width of the
// counting pool and of the Eclat walk; procs 0 leaves it as it is.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// parallelTestDB builds a datagen workload deep enough that the walk
// recurses several levels below the root class.
func parallelTestDB(t testing.TB) *itemset.DB {
	t.Helper()
	table, err := datagen.PaperDataset1(datagen.DefaultSeed, 600)
	if err != nil {
		t.Fatal(err)
	}
	return itemset.NewDB(table)
}

// TestEclatParallelByteIdentical asserts the parallel walk's output is
// exactly the sequential walk's — same itemsets, same supports, same
// order — across GOMAXPROCS widths, minsups, and the KC+ filters.
func TestEclatParallelByteIdentical(t *testing.T) {
	db := parallelTestDB(t)
	deps := make([]Pair, 0, len(datagen.Dataset1Dependencies))
	for _, d := range datagen.Dataset1Dependencies {
		deps = append(deps, Pair{A: d.A, B: d.B})
	}
	for _, minsup := range []float64{0.05, 0.15} {
		for _, kc := range []bool{false, true} {
			cfg := Config{MinSupport: minsup}
			if kc {
				cfg.FilterSameFeature = true
				cfg.Dependencies = deps
			}
			var seq *Result
			var err error
			withProcs(1, func() { seq, err = Eclat(db, cfg) })
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				var par *Result
				withProcs(workers, func() { par, err = Eclat(db, cfg) })
				if err != nil {
					t.Fatal(err)
				}
				if len(seq.Frequent) != len(par.Frequent) {
					t.Fatalf("minsup=%g kc=%v workers=%d: %d vs %d itemsets",
						minsup, kc, workers, len(seq.Frequent), len(par.Frequent))
				}
				for i := range seq.Frequent {
					a, b := seq.Frequent[i], par.Frequent[i]
					if !a.Items.Equal(b.Items) || a.Support != b.Support {
						t.Fatalf("minsup=%g kc=%v workers=%d: itemset %d differs: %v/%d vs %v/%d",
							minsup, kc, workers, i, a.Items, a.Support, b.Items, b.Support)
					}
				}
				if par.PrunedDeps != seq.PrunedDeps || par.PrunedSameFeature != seq.PrunedSameFeature {
					t.Errorf("minsup=%g kc=%v workers=%d: prunes %d/%d vs %d/%d",
						minsup, kc, workers, par.PrunedDeps, par.PrunedSameFeature,
						seq.PrunedDeps, seq.PrunedSameFeature)
				}
			}
		}
	}
}

// TestEclatParallelWorkerCounters asserts the parallel walk reports its
// fan-out balance through the obs layer: a workers counter plus
// per-worker subtree and itemset tallies that add up to the whole walk.
func TestEclatParallelWorkerCounters(t *testing.T) {
	db := parallelTestDB(t)
	const workers = 4
	tr := obs.New(nil)
	ctx := obs.WithTrace(context.Background(), tr)
	var res *Result
	var err error
	withProcs(workers, func() { res, err = EclatContext(ctx, db, Config{MinSupport: 0.05}) })
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Counter("eclat.workers"); got != workers {
		t.Fatalf("eclat.workers = %d, want %d", got, workers)
	}
	size1 := res.CountBySize()[1]
	var roots, itemsets int64
	for w := 0; w < workers; w++ {
		roots += tr.Counter(obs.WorkerCounter("eclat", w, "roots"))
		itemsets += tr.Counter(obs.WorkerCounter("eclat", w, "itemsets"))
	}
	if roots != int64(size1) {
		t.Errorf("worker roots sum to %d, want %d (one per frequent item)", roots, size1)
	}
	if want := int64(len(res.Frequent) - size1); itemsets != want {
		t.Errorf("worker itemsets sum to %d, want %d", itemsets, want)
	}
}

// cancelAfterCtx is a context whose Err flips to context.Canceled after
// a fixed number of polls — a deterministic mid-DFS cancellation without
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

// TestEclatParallelCancellation cancels the context mid-DFS and asserts
// every worker stops promptly with ctx.Err() and none is leaked.
func TestEclatParallelCancellation(t *testing.T) {
	db := parallelTestDB(t)
	db.BuildTidsets() // keep the baseline goroutine count stable
	before := runtime.NumGoroutine()
	for _, pollsBeforeCancel := range []int{5, 40, 200} {
		ctx := &cancelAfterCtx{Context: context.Background(), left: pollsBeforeCancel}
		var res *Result
		var err error
		withProcs(8, func() { res, err = EclatContext(ctx, db, Config{MinSupport: 0.03}) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("polls=%d: err = %v, want context.Canceled", pollsBeforeCancel, err)
		}
		if res != nil {
			t.Fatalf("polls=%d: cancelled walk must not return a partial result", pollsBeforeCancel)
		}
	}
	// EclatContext only returns after wg.Wait, so no worker may outlive
	// it; poll briefly to let exiting goroutines be reaped.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
