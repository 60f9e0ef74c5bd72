package mining

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
)

// resultsEqual compares two mining results as sets of (itemset, support).
func resultsEqual(t *testing.T, name string, a, b *Result, d *itemset.Dictionary) {
	t.Helper()
	if len(a.Frequent) != len(b.Frequent) {
		t.Errorf("%s: %d vs %d frequent itemsets", name, len(a.Frequent), len(b.Frequent))
	}
	bByKey := map[string]int{}
	for _, f := range b.Frequent {
		bByKey[f.Items.Key()] = f.Support
	}
	for _, f := range a.Frequent {
		sup, ok := bByKey[f.Items.Key()]
		if !ok {
			t.Errorf("%s: %s missing from second result", name, f.Items.Format(d))
			continue
		}
		if sup != f.Support {
			t.Errorf("%s: support mismatch for %s: %d vs %d", name, f.Items.Format(d), f.Support, sup)
		}
	}
}

// randomTable builds a small random transaction table over an item
// vocabulary including same-feature predicate pairs.
func randomTable(rng *rand.Rand, rows, items int) *dataset.Table {
	vocab := []string{
		"contains_slum", "touches_slum", "overlaps_slum",
		"contains_school", "touches_school",
		"contains_river", "crosses_river",
		"rate=high", "rate=low", "zone=a",
	}
	if items > len(vocab) {
		items = len(vocab)
	}
	txs := make([]dataset.Transaction, rows)
	for i := range txs {
		var its []string
		for j := 0; j < items; j++ {
			if rng.Float64() < 0.45 {
				its = append(its, vocab[j])
			}
		}
		txs[i] = dataset.Transaction{RefID: "r", Items: its}
	}
	return dataset.NewTable(txs)
}

// TestMinersAgainstBruteForce is the ground-truth oracle: on small random
// tables, both independent miners (level-wise Apriori and the vertical
// Eclat walk) must produce exactly the itemsets found by exhaustively
// testing every subset of the item vocabulary.
func TestMinersAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		table := randomTable(rng, 12, 8)
		db := itemset.NewDB(table)
		minsup := 0.25
		minCount, err := resolveMinSupport(db, Config{MinSupport: minsup})
		if err != nil {
			t.Fatal(err)
		}

		// Brute force over all 2^n subsets.
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

		for name, alg := range map[string]func(*itemset.DB, Config) (*Result, error){
			"apriori": Apriori,
			"eclat":   Eclat,
		} {
			res, err := alg(db, Config{MinSupport: minsup})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Frequent) != len(truth) {
				t.Errorf("trial %d %s: %d itemsets, truth %d", trial, name, len(res.Frequent), len(truth))
			}
			for _, f := range res.Frequent {
				sup, ok := truth[f.Items.Key()]
				if !ok {
					t.Errorf("trial %d %s: spurious %s", trial, name, f.Items.Format(db.Dict))
					continue
				}
				if sup != f.Support {
					t.Errorf("trial %d %s: support %d, truth %d for %s",
						trial, name, f.Support, sup, f.Items.Format(db.Dict))
				}
			}
		}
	}
}

// frequentLines renders freq as sorted "itemset support" lines, the
// form two results are compared in.
func frequentLines(freq []FrequentItemset, d *itemset.Dictionary) []string {
	out := make([]string, len(freq))
	for i, f := range freq {
		out[i] = fmt.Sprintf("%s %d", f.Items.Format(d), f.Support)
	}
	sort.Strings(out)
	return out
}

// TestKCPlusBruteForceEquivalence: KC+ (either engine) must find exactly
// the itemsets, with the same supports, that plain Apriori finds once
// those holding a same-feature pair are dropped, at minimum supports
// from 0.1 to 0.5.
func TestKCPlusBruteForceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pruned := 0
	for trial := 0; trial < 10; trial++ {
		table := randomTable(rng, 15, 9)
		db := itemset.NewDB(table)
		for _, minsup := range []float64{0.1, 0.2, 0.3, 0.5} {
			full, err := Apriori(db, Config{MinSupport: minsup})
			if err != nil {
				t.Fatal(err)
			}
			kept := FilterSameFeaturePost(full.Frequent, db.Dict)
			pruned += len(full.Frequent) - len(kept)
			want := frequentLines(kept, db.Dict)
			for name, alg := range map[string]func(*itemset.DB, Config) (*Result, error){
				"apriori-kc+": AprioriKCPlus,
				"eclat-kc+": func(db *itemset.DB, cfg Config) (*Result, error) {
					cfg.FilterSameFeature = true
					return Eclat(db, cfg)
				},
			} {
				res, err := alg(db, Config{MinSupport: minsup})
				if err != nil {
					t.Fatal(err)
				}
				if got := frequentLines(res.Frequent, db.Dict); !slices.Equal(got, want) {
					t.Errorf("trial %d minsup %v %s:\n got %q\nwant %q", trial, minsup, name, got, want)
				}
			}
		}
	}
	// The filter must have had same-feature itemsets to drop.
	if pruned == 0 {
		t.Error("no trial had a frequent itemset with a same-feature pair")
	}
}
