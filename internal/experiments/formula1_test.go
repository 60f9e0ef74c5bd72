package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/gain"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/qsr"
	"repro/internal/transact"
)

// formula1Bound mines db at minsup with plain Apriori and with
// Apriori-KC+ (no Φ) and requires Formula 1 to lower-bound the real
// gain |Apriori| − |Apriori-KC+| at every maximal frequent itemset of
// plain Apriori: each subset of it holding two relations of one
// feature type is frequent there and filtered by KC+, and gain.MinGain
// counts exactly those subsets. It returns the largest bound and the
// real gain.
func formula1Bound(t *testing.T, name string, db *itemset.DB, minsup float64) (bound uint64, real int) {
	t.Helper()
	cfg := mining.Config{MinSupport: minsup}
	full, err := mining.Apriori(db, cfg)
	if err != nil {
		t.Fatalf("%s: apriori: %v", name, err)
	}
	plus, err := mining.AprioriKCPlus(db, cfg)
	if err != nil {
		t.Fatalf("%s: apriori-kc+: %v", name, err)
	}
	real = len(full.Frequent) - len(plus.Frequent)
	for _, f := range mining.MaximalOnly(full.Frequent) {
		ts, n := composition(db.Dict, f.Items)
		g, err := gain.MinGain(ts, n)
		if err != nil {
			t.Fatalf("%s: MinGain(%v, %d): %v", name, ts, n, err)
		}
		if g > uint64(real) {
			t.Errorf("%s: Formula 1 bounds %s (t=%v, n=%d) at %d, above the real gain %d",
				name, f.Items.Format(db.Dict), ts, n, g, real)
		}
		bound = max(bound, g)
	}
	return bound, real
}

// TestFormula1LowerBoundsRealGain checks Formula 1 as a property, not
// only at the two Section 4.2 points: on seeded random tables, on both
// paper datasets at every support of Figures 4–7, and on the four
// 28×28 scene tables of the cli-scene benchmark at seed 2007 under its
// extraction options at 20 %. So that the property is not met
// vacuously, the largest bound must be positive on every paper support
// and scene and on at least half the random tables.
func TestFormula1LowerBoundsRealGain(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		var names []string
		for _, ft := range []string{"slum", "school", "river"} {
			for _, rel := range []string{"contains", "touches", "crosses", "closeTo"} {
				names = append(names, rel+"_"+ft)
			}
		}
		names = append(names, "crime=high", "crime=low", "income=mid")
		positive := 0
		for trial := 0; trial < 30; trial++ {
			rows := make([]dataset.Transaction, 30+rng.Intn(50))
			p := 0.25 + 0.3*rng.Float64()
			for i := range rows {
				rows[i].RefID = fmt.Sprintf("r%d", i)
				for _, name := range names {
					if rng.Float64() < p {
						rows[i].Items = append(rows[i].Items, name)
					}
				}
			}
			db := itemset.NewDB(dataset.NewTable(rows))
			if bound, _ := formula1Bound(t, fmt.Sprintf("random table %d", trial), db, 0.1+0.3*rng.Float64()); bound > 0 {
				positive++
			}
		}
		t.Logf("%d of 30 random tables bound the gain above 0", positive)
		if positive < 15 {
			t.Errorf("only %d of 30 random tables bound the gain above 0", positive)
		}
	})

	paper := []struct {
		name     string
		table    func(int64, int) (*dataset.Table, error)
		supports []float64
	}{
		{"dataset 1", datagen.PaperDataset1, []float64{0.05, 0.10, 0.15}},
		{"dataset 2", datagen.PaperDataset2, []float64{0.05, 0.08, 0.11, 0.14, 0.17}},
	}
	for _, pd := range paper {
		t.Run(pd.name, func(t *testing.T) {
			table, err := pd.table(datagen.DefaultSeed, datagen.DefaultRows)
			if err != nil {
				t.Fatal(err)
			}
			for _, ms := range pd.supports {
				name := fmt.Sprintf("%s at %.0f%%", pd.name, ms*100)
				bound, real := formula1Bound(t, name, itemset.NewDB(table), ms)
				if bound == 0 {
					t.Errorf("%s: every bound is 0", name)
				}
				t.Logf("%s: largest bound %d, real gain %d", name, bound, real)
			}
		})
	}

	t.Run("cli-scene", func(t *testing.T) {
		opts := transact.Options{Topological: true, Distance: true, Thresholds: qsr.DefaultThresholds(10), Index: transact.RTreeIndex}
		for k := range 4 {
			d, err := datagen.GenerateScene(datagen.DefaultScene(28, 28, 2007*4+int64(k)))
			if err != nil {
				t.Fatal(err)
			}
			st, err := transact.NewState(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("cli-scene scene %d at 20%%", k)
			bound, real := formula1Bound(t, name, itemset.NewDBIndexed(st.Rows()), 0.2)
			if bound == 0 {
				t.Errorf("%s: every bound is 0", name)
			}
			t.Logf("%s: largest bound %d, real gain %d", name, bound, real)
		}
	})
}
