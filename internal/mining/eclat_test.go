package mining

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
)

func TestEclatMatchesApriori(t *testing.T) {
	tables := map[string]*dataset.Table{
		"table1":         dataset.PortoAlegreTable(),
		"reconstruction": dataset.Table2Reconstruction(),
	}
	for name, table := range tables {
		for _, minsup := range []float64{0.17, 0.34, 0.5, 0.84} {
			db := itemset.NewDB(table)
			ap, err := Apriori(db, Config{MinSupport: minsup})
			if err != nil {
				t.Fatal(err)
			}
			ec, err := Eclat(db, Config{MinSupport: minsup})
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, name, ap, ec, db.Dict)
			resultsEqual(t, name+"/reverse", ec, ap, db.Dict)
		}
	}
}

func TestEclatKCPlusMatchesAprioriKCPlus(t *testing.T) {
	db := table2DB()
	cfg := Config{MinSupport: 0.5, FilterSameFeature: true,
		Dependencies: []Pair{{A: "contains_slum", B: "contains_school"}}}
	ap, err := Mine(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := Eclat(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "kc+", ap, ec, db.Dict)
	resultsEqual(t, "kc+/reverse", ec, ap, db.Dict)
	if ec.PrunedDeps != ap.PrunedDeps {
		t.Errorf("PrunedDeps: eclat %d vs apriori %d", ec.PrunedDeps, ap.PrunedDeps)
	}
	if ec.PrunedSameFeature != ap.PrunedSameFeature {
		t.Errorf("PrunedSameFeature: eclat %d vs apriori %d", ec.PrunedSameFeature, ap.PrunedSameFeature)
	}
}

func TestEclatBruteForce(t *testing.T) {
	// Ground-truth oracle: on small random tables Eclat must produce
	// exactly the itemsets found by exhaustive subset enumeration. The
	// random tables mix supports above and below the diffset switching
	// threshold, so both representations are exercised.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		table := randomTable(rng, 12, 8)
		db := itemset.NewDB(table)
		minsup := 0.25
		minCount, err := resolveMinSupport(db, Config{MinSupport: minsup})
		if err != nil {
			t.Fatal(err)
		}
		n := db.Dict.Len()
		truth := map[string]int{}
		for mask := 1; mask < 1<<uint(n); mask++ {
			var s itemset.Itemset
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					s = append(s, int32(i))
				}
			}
			if sup := db.SupportHorizontal(s); sup >= minCount {
				truth[s.Key()] = sup
			}
		}
		res, err := Eclat(db, Config{MinSupport: minsup})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Frequent) != len(truth) {
			t.Errorf("trial %d: %d itemsets, truth %d", trial, len(res.Frequent), len(truth))
		}
		for _, f := range res.Frequent {
			sup, ok := truth[f.Items.Key()]
			if !ok {
				t.Errorf("trial %d: spurious %s", trial, f.Items.Format(db.Dict))
				continue
			}
			if sup != f.Support {
				t.Errorf("trial %d: support %d, truth %d for %s",
					trial, f.Support, sup, f.Items.Format(db.Dict))
			}
		}
	}
}

func TestEclatSupportLookupAndStats(t *testing.T) {
	db := table2DB()
	res, err := Eclat(db, Config{MinSupport: 0.34})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Frequent {
		if sup, ok := res.Support(f.Items); !ok || sup != f.Support {
			t.Errorf("Support(%s) = %d,%v want %d", f.Items.Format(db.Dict), sup, ok, f.Support)
		}
	}
	bySize := res.CountBySize()
	if len(res.Stats) != res.MaxLen() {
		t.Fatalf("stats: %d entries, max len %d", len(res.Stats), res.MaxLen())
	}
	for _, s := range res.Stats {
		if s.Frequent != bySize[s.K] {
			t.Errorf("pass %d: stat %d vs counted %d", s.K, s.Frequent, bySize[s.K])
		}
	}
}

func TestEclatErrorsAndCancellation(t *testing.T) {
	db := paperDB()
	if _, err := Eclat(db, Config{}); err == nil {
		t.Error("zero minsup should fail")
	}
	empty := itemset.NewDB(dataset.NewTable(nil))
	if _, err := Eclat(empty, Config{MinSupport: 0.5}); err == nil {
		t.Error("empty database should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EclatContext(ctx, db, Config{MinSupport: 0.17}); err != context.Canceled {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
}
