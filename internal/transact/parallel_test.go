package transact

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/qsr"
)

// TestParallelExtractionDeterministic: extraction output must be
// identical at every parallelism level, including with the race detector.
func TestParallelExtractionDeterministic(t *testing.T) {
	scene, err := datagen.GenerateScene(datagen.DefaultScene(8, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	var baseline *dataset.Table
	for _, workers := range []int{1, 0, 2, 7} {
		opts := DefaultOptions()
		opts.Parallelism = workers
		got, err := Extract(scene, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = got
			continue
		}
		if got.Len() != baseline.Len() {
			t.Fatalf("workers=%d: %d rows, want %d", workers, got.Len(), baseline.Len())
		}
		for i := range baseline.Transactions {
			if !reflect.DeepEqual(baseline.Transactions[i], got.Transactions[i]) {
				t.Fatalf("workers=%d row %d differs:\n  %v\n  %v",
					workers, i, baseline.Transactions[i], got.Transactions[i])
			}
		}
	}
}

func TestParallelExtractionWithDistance(t *testing.T) {
	// Distance extraction shares the per-layer indexes across workers.
	scene, err := datagen.GenerateScene(datagen.DefaultScene(6, 6, 9))
	if err != nil {
		t.Fatal(err)
	}
	seq := Options{
		Distance:    true,
		Thresholds:  qsr.DistanceThresholds{VeryCloseMax: 1, CloseMax: 8},
		Parallelism: 1,
		Index:       NoIndex,
	}
	par := seq
	par.Parallelism = 4
	a, err := Extract(scene, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(scene, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Transactions, b.Transactions) {
		t.Error("parallel distance extraction differs from sequential")
	}
}

// TestParallelismCappedAtWork: a Parallelism far above the row count
// extracts the same table without a goroutine or scratch slot per unit
// of it; the pool never grows past the work.
func TestParallelismCappedAtWork(t *testing.T) {
	scene, err := datagen.GenerateScene(datagen.DefaultScene(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Distance = true
	opts.Thresholds = qsr.DefaultThresholds(10)
	want, err := Extract(scene, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 1 << 17
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Extract(scene, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Parallelism 1<<17 extracts a different table than Parallelism 0")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("Parallelism 1<<17 allocated %d bytes on a %d-row scene, want under 4 MB", alloc, scene.Reference.Len())
	}
}
