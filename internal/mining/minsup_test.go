package mining

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
)

// uniformDB builds a database of n rows; item "anchor" appears in
// exactly anchorRows of them alongside a per-row filler item.
func uniformDB(n, anchorRows int) *itemset.DB {
	var rows []dataset.Transaction
	for r := 0; r < n; r++ {
		items := []string{fmt.Sprintf("filler=%d", r%5)}
		if r < anchorRows {
			items = append(items, "anchor=yes")
		}
		rows = append(rows, dataset.Transaction{RefID: fmt.Sprintf("R%d", r), Items: items})
	}
	return itemset.NewDB(dataset.NewTable(rows))
}

// TestResolveMinSupportRounding pins the epsilon-tolerant ceiling over
// adversarial fractions whose binary-float product lands just above the
// true integer (0.07×100 = 7.000000000000001): the paper's definition
// counts support/N >= minsup as frequent, so the threshold must not be
// inflated by rounding jitter. The 0.07/100, 0.28/25, 0.14/50, and
// 0.55/100 rows fail on the raw float comparison this replaced (the
// old code resolved them one too high).
func TestResolveMinSupportRounding(t *testing.T) {
	cases := []struct {
		minsup float64
		n      int
		want   int
	}{
		{0.07, 100, 7},  // 7.000000000000001, old code said 8
		{0.28, 25, 7},   // old code said 8
		{0.14, 50, 7},   // old code said 8
		{0.55, 100, 55}, // old code said 56
		{0.1, 30, 3},    // jitter rounds back to exactly 3.0
		{0.2, 35, 7},
		{0.3, 10, 3}, // 2.9999999999999996, jitter below
		{0.29, 100, 29},
		{0.05, 30, 2}, // genuine ceiling: 1.5 -> 2
		{0.17, 6, 2},  // genuine ceiling: 1.02 -> 2
		{0.5, 7, 4},
		{1.0, 7, 7},
		{0.001, 3, 1}, // floor of one transaction
	}
	for _, c := range cases {
		db := uniformDB(c.n, c.n)
		got, err := resolveMinSupport(db, Config{MinSupport: c.minsup})
		if err != nil {
			t.Fatalf("minsup=%g n=%d: %v", c.minsup, c.n, err)
		}
		if got != c.want {
			t.Errorf("resolveMinSupport(%g × %d) = %d, want %d", c.minsup, c.n, got, c.want)
		}
	}
}

// TestMinSupportBoundaryItemsetKeptByAllEngines mines databases where an
// item sits exactly on the support/N = minsup boundary of an adversarial
// fraction, asserting every engine keeps it and that all three agree.
// Pre-fix, the inflated threshold silently dropped the boundary item.
func TestMinSupportBoundaryItemsetKeptByAllEngines(t *testing.T) {
	engines := []struct {
		name string
		fn   func(*itemset.DB, Config) (*Result, error)
	}{
		{"apriori", Apriori},
		{"apriori-kc+", AprioriKCPlus},
		{"eclat", Eclat},
	}
	cases := []struct {
		minsup float64
		n      int
		count  int // boundary support: exactly ceil(minsup*n)
	}{
		{0.07, 100, 7},
		{0.28, 25, 7},
		{0.14, 50, 7},
		{0.1, 30, 3},
	}
	for _, c := range cases {
		db := uniformDB(c.n, c.count)
		anchor, ok := db.Dict.Lookup("anchor=yes")
		if !ok {
			t.Fatal("anchor item missing")
		}
		var results []*Result
		for _, e := range engines {
			res, err := e.fn(db, Config{MinSupport: c.minsup})
			if err != nil {
				t.Fatalf("%s minsup=%g: %v", e.name, c.minsup, err)
			}
			if res.MinSupportCount != c.count {
				t.Errorf("%s minsup=%g n=%d: resolved count %d, want %d",
					e.name, c.minsup, c.n, res.MinSupportCount, c.count)
			}
			if sup, frequent := res.Support(itemset.Itemset{anchor}); !frequent || sup != c.count {
				t.Errorf("%s minsup=%g n=%d: boundary item support = %d, frequent = %v; want %d, true",
					e.name, c.minsup, c.n, sup, frequent, c.count)
			}
			results = append(results, res)
		}
		for i := 1; i < len(results); i++ {
			resultsEqual(t, fmt.Sprintf("minsup=%g/%s-vs-%s", c.minsup, engines[0].name, engines[i].name),
				results[0], results[i], db.Dict)
		}
	}
}
