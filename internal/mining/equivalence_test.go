package mining

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/transact"
)

// TestEnginesEquivalentOnGeneratedScenes is the cross-engine property
// test: on seeded datagen workloads of several sizes and minimum
// supports, Apriori, Apriori-KC+, and Eclat produce identical
// frequent-itemset sets and supports at GOMAXPROCS 1, 4 and the host's
// own (GOMAXPROCS sizes both the Apriori counting pool and the sharded
// Eclat walk), and the Apriori and Apriori-KC+ results are exact by row
// scan (checkByRowScan). Run under -race in CI at GOMAXPROCS 1, 2, and
// 8, this also proves the workers share the DB's read-only bitmaps
// safely.
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

	border := 0
	for name, table := range tables {
		for _, minsup := range []float64{0.05, 0.12, 0.3} {
			for _, par := range []int{1, 0, 4} {
				t.Run(fmt.Sprintf("%s/minsup=%g/par=%d", name, minsup, par), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
					db := itemset.NewDB(table)
					plain := Config{MinSupport: minsup}
					kcplus := Config{MinSupport: minsup,
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
					border += checkByRowScan(t, "apriori", db, apriori, plain)

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
					border += checkByRowScan(t, "kc+", db, kc, kcplus)
				})
			}
		}
	}
	if border == 0 {
		t.Error("no result had a negative border to check")
	}
}

// checkByRowScan holds res to DB.SupportHorizontal alone, with no
// bitmap, and returns how many negative-border itemsets it checked:
//   - every reported itemset has its row-scan support, at least
//     MinSupportCount, and no pair cfg's filters remove (a Φ pair, or
//     with FilterSameFeature two predicates over one feature type);
//   - every item not reported as a 1-itemset is infrequent;
//   - every itemset on the negative border is infrequent. A border
//     itemset is a reported itemset plus a frequent item above its
//     largest, with every one-smaller subset reported and no removed
//     pair.
//
// By induction on size, the three make res exactly the frequent
// itemsets that hold no removed pair.
func checkByRowScan(t testing.TB, name string, db *itemset.DB, res *Result, cfg Config) int {
	t.Helper()
	deps := map[[2]string]bool{}
	for _, p := range cfg.Dependencies {
		deps[[2]string{p.A, p.B}] = true
		deps[[2]string{p.B, p.A}] = true
	}
	removed := func(a, b int32) bool {
		return deps[[2]string{db.Dict.Name(a), db.Dict.Name(b)}] ||
			cfg.FilterSameFeature && db.Dict.SameFeatureType(a, b)
	}
	minCount := res.MinSupportCount
	reported := make(map[string]bool, len(res.Frequent))
	var items []int32
	for _, f := range res.Frequent {
		s, key := f.Items, f.Items.Key()
		if reported[key] {
			t.Errorf("%s: %s reported twice", name, s.Format(db.Dict))
		}
		reported[key] = true
		if sup := db.SupportHorizontal(s); sup != f.Support || sup < minCount {
			t.Errorf("%s: %s reported with support %d; row scan %d, minimum %d",
				name, s.Format(db.Dict), f.Support, sup, minCount)
		}
		for i, a := range s {
			for _, b := range s[i+1:] {
				if removed(a, b) {
					t.Errorf("%s: %s holds a removed pair", name, s.Format(db.Dict))
				}
			}
		}
		if len(s) == 1 {
			items = append(items, s[0])
		}
	}
	for id := range int32(db.Dict.Len()) {
		s := itemset.Itemset{id}
		if reported[s.Key()] {
			continue
		}
		if sup := db.SupportHorizontal(s); sup >= minCount {
			t.Errorf("%s: item %s has row-scan support %d >= %d but is not reported",
				name, s.Format(db.Dict), sup, minCount)
		}
	}
	border := 0
	for _, f := range res.Frequent {
		x := f.Items
	extend:
		for _, id := range items {
			if id <= x[len(x)-1] {
				continue
			}
			for _, m := range x {
				if removed(m, id) {
					continue extend
				}
			}
			c := append(append(make(itemset.Itemset, 0, len(x)+1), x...), id)
			if reported[c.Key()] {
				continue
			}
			// Dropping id gives x; dropping a member of x must give a
			// reported itemset too.
			for drop := range x {
				if !reported[c.Without(drop).Key()] {
					continue extend
				}
			}
			border++
			if sup := db.SupportHorizontal(c); sup >= minCount {
				t.Errorf("%s: %s has row-scan support %d >= %d but is not reported",
					name, c.Format(db.Dict), sup, minCount)
			}
		}
	}
	return border
}

// errorCounter stands in for a test's testing.TB and counts the errors
// a check reports instead of failing.
type errorCounter struct {
	testing.TB
	n int
}

func (e *errorCounter) Errorf(string, ...any) { e.n++ }

// TestCheckByRowScanCatchesFaults holds checkByRowScan to its contract:
// it passes a correct result and fails one that is wrong in each way it
// looks for.
func TestCheckByRowScanCatchesFaults(t *testing.T) {
	db := table2DB()
	cfg := Config{MinSupport: 0.5, FilterSameFeature: true}
	good, err := Mine(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	errorsIn := func(frequent []FrequentItemset) int {
		res := &Result{Frequent: frequent, MinSupportCount: good.MinSupportCount}
		ec := &errorCounter{TB: t}
		checkByRowScan(ec, "kc+", db, res, cfg)
		return ec.n
	}
	if n := errorsIn(good.Frequent); n != 0 {
		t.Fatalf("correct result: %d errors", n)
	}
	last := len(good.Frequent) - 1
	without := func(i int) []FrequentItemset {
		return append(slices.Clone(good.Frequent[:i]), good.Frequent[i+1:]...)
	}
	wrongSupport := slices.Clone(good.Frequent)
	wrongSupport[last].Support++
	// A frequent pair the same-feature filter removes, reported with its
	// true support: only the removed-pair check can catch it.
	sameFeature := slices.Clone(good.Frequent)
	for a := range int32(db.Dict.Len()) {
		for b := a + 1; b < int32(db.Dict.Len()); b++ {
			s := itemset.Itemset{a, b}
			if sup := db.SupportHorizontal(s); db.Dict.SameFeatureType(a, b) && sup >= good.MinSupportCount {
				sameFeature = append(sameFeature, FrequentItemset{Items: s, Support: sup})
			}
		}
	}
	if len(sameFeature) == len(good.Frequent) {
		t.Fatal("no frequent same-feature pair to report")
	}
	for name, frequent := range map[string][]FrequentItemset{
		"wrong support":        wrongSupport,
		"duplicate":            append(slices.Clone(good.Frequent), good.Frequent[0]),
		"frequent item left":   without(0),
		"border itemset left":  without(last),
		"same-feature pair in": sameFeature,
	} {
		if n := errorsIn(frequent); n == 0 {
			t.Errorf("%s: no error reported", name)
		}
	}
}
