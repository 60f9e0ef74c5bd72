package mining

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/transact"
)

// TestEnginesEquivalentOnGeneratedScenes is the cross-engine property
// test: on seeded datagen workloads of several sizes and minimum
// supports, Apriori, Apriori-KC+, and Eclat produce identical
// frequent-itemset sets and supports, at sequential, GOMAXPROCS, and
// forced-multi-worker parallelism alike (Parallelism drives both the
// Apriori counting pool and the sharded Eclat walk). Run under -race in
// CI at GOMAXPROCS 1, 2, and 8, this also proves the workers share the
// DB's read-only bitmaps safely.
func TestEnginesEquivalentOnGeneratedScenes(t *testing.T) {
	deps := make([]Pair, 0, len(datagen.Dataset1Dependencies))
	for _, d := range datagen.Dataset1Dependencies {
		deps = append(deps, Pair{A: d.A, B: d.B})
	}
	tables := map[string]*dataset.Table{}
	for _, rows := range []int{120, 600} {
		t1, err := datagen.PaperDataset1(datagen.DefaultSeed, rows)
		if err != nil {
			t.Fatal(err)
		}
		tables[fmt.Sprintf("dataset1/rows=%d", rows)] = t1
		t2, err := datagen.PaperDataset2(datagen.DefaultSeed, rows)
		if err != nil {
			t.Fatal(err)
		}
		tables[fmt.Sprintf("dataset2/rows=%d", rows)] = t2
	}
	// One geometric scene end to end: generated scene -> DE-9IM
	// extraction -> transactions.
	scene, err := datagen.GenerateScene(datagen.DefaultScene(8, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	extracted, err := transact.Extract(scene, transact.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tables["scene8x8"] = extracted

	for name, table := range tables {
		for _, minsup := range []float64{0.05, 0.12, 0.3} {
			for _, par := range []int{1, 0, 4} {
				t.Run(fmt.Sprintf("%s/minsup=%g/par=%d", name, minsup, par), func(t *testing.T) {
					db := itemset.NewDB(table)
					plain := Config{MinSupport: minsup, Parallelism: par}
					kcplus := Config{MinSupport: minsup, Parallelism: par,
						FilterSameFeature: true, Dependencies: deps}

					apriori, err := Apriori(db, plain)
					if err != nil {
						t.Fatal(err)
					}
					eclat, err := Eclat(db, plain)
					if err != nil {
						t.Fatal(err)
					}
					resultsEqual(t, "apriori-vs-eclat", apriori, eclat, db.Dict)
					resultsEqual(t, "eclat-vs-apriori", eclat, apriori, db.Dict)

					horizontal := plain
					horizontal.Counting = HorizontalCounting
					hres, err := Apriori(db, horizontal)
					if err != nil {
						t.Fatal(err)
					}
					resultsEqual(t, "vertical-vs-horizontal", apriori, hres, db.Dict)
					resultsEqual(t, "horizontal-vs-vertical", hres, apriori, db.Dict)

					kc, err := Mine(db, kcplus)
					if err != nil {
						t.Fatal(err)
					}
					ec, err := Eclat(db, kcplus)
					if err != nil {
						t.Fatal(err)
					}
					resultsEqual(t, "kc+-vs-eclat", kc, ec, db.Dict)
					resultsEqual(t, "eclat-vs-kc+", ec, kc, db.Dict)
				})
			}
		}
	}
}
