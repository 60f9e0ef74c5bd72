package mining

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
)

// paperDB returns the printed Table 1 database.
func paperDB() *itemset.DB {
	return itemset.NewDB(dataset.PortoAlegreTable())
}

// table2DB returns the Table 2-consistent reconstruction (see
// dataset.Table2Reconstruction for why the printed Table 1 cannot
// reproduce Table 2).
func table2DB() *itemset.DB {
	return itemset.NewDB(dataset.Table2Reconstruction())
}

// cfg50 is the paper's Section 2 configuration: minimum support 50%.
func cfg50() Config { return Config{MinSupport: 0.5} }

// TestTable2Counts reproduces the paper's Table 2 on the reconstruction:
// minimum support 50% yields 60 frequent itemsets of size >= 2 with the
// largest itemset having 6 elements, 30 of them containing a same-feature
// pair (the paper prints 31; see dataset.Table2Reconstruction).
func TestTable2Counts(t *testing.T) {
	db := table2DB()
	res, err := Apriori(db, cfg50())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NumFrequent(2); got != 60 {
		t.Errorf("frequent itemsets (size >= 2) = %d, want 60 (paper Table 2)", got)
	}
	same := 0
	for _, f := range res.Frequent {
		if len(f.Items) >= 2 && f.Items.HasSameFeaturePair(db.Dict) {
			same++
		}
	}
	if same != 30 {
		t.Errorf("same-feature itemsets = %d, want 30 (paper prints 31)", same)
	}
	if got := res.MaxLen(); got != 6 {
		t.Errorf("largest frequent itemset = %d, want 6", got)
	}
	// Size histogram of Table 2: 17 + 21 + 15 + 6 + 1 = 60.
	bySize := res.CountBySize()
	for size, want := range map[int]int{2: 17, 3: 21, 4: 15, 5: 6, 6: 1} {
		if bySize[size] != want {
			t.Errorf("size-%d itemsets = %d, want %d", size, bySize[size], want)
		}
	}
}

// TestPrintedTable1Counts records what the printed Table 1 actually
// yields at 50% support — the inconsistency with Table 2 documented in
// EXPERIMENTS.md.
func TestPrintedTable1Counts(t *testing.T) {
	db := paperDB()
	res, err := Apriori(db, cfg50())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NumFrequent(2); got != 47 {
		t.Errorf("printed Table 1 frequent (size >= 2) = %d, want 47 (measured)", got)
	}
	if got := res.MaxLen(); got != 5 {
		t.Errorf("printed Table 1 largest itemset = %d, want 5 (measured)", got)
	}
}

// TestTable2KCPlusCounts verifies the KC+ pass on the reconstruction: all
// 30 same-feature itemsets disappear, 30 frequent sets of size >= 2
// remain, via exactly 4 pruned pairs.
func TestTable2KCPlusCounts(t *testing.T) {
	db := table2DB()
	res, err := AprioriKCPlus(db, cfg50())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NumFrequent(2); got != 30 {
		t.Errorf("KC+ frequent (size >= 2) = %d, want 60 - 30 = 30", got)
	}
	for _, f := range res.Frequent {
		if f.Items.HasSameFeaturePair(db.Dict) {
			t.Errorf("KC+ leaked same-feature itemset %s", f.Items.Format(db.Dict))
		}
	}
	// The k=2 pruning removed pairs, not larger sets: slum has 3 frequent
	// relations (contains, touches, overlaps — covers has support 2 of 6)
	// and school 2, so C(3,2) + C(2,2) = 4 pairs.
	if res.PrunedSameFeature != 4 {
		t.Errorf("pruned same-feature pairs = %d, want 4", res.PrunedSameFeature)
	}
}

// TestPostFilterEquivalence asserts the paper's Section 3 claim: pruning
// the pairs at k=2 loses exactly the same-feature itemsets and nothing
// else — Apriori followed by an aposteriori filter equals Apriori-KC+.
func TestPostFilterEquivalence(t *testing.T) {
	db := table2DB()
	full, err := Apriori(db, cfg50())
	if err != nil {
		t.Fatal(err)
	}
	plus, err := AprioriKCPlus(db, cfg50())
	if err != nil {
		t.Fatal(err)
	}
	post := FilterSameFeaturePost(full.Frequent, db.Dict)
	if len(post) != len(plus.Frequent) {
		t.Fatalf("post filter = %d sets, KC+ = %d", len(post), len(plus.Frequent))
	}
	plusByKey := map[string]int{}
	for _, f := range plus.Frequent {
		plusByKey[f.Items.Key()] = f.Support
	}
	for _, f := range post {
		sup, ok := plusByKey[f.Items.Key()]
		if !ok {
			t.Errorf("post-filtered set %s missing from KC+", f.Items.Format(db.Dict))
			continue
		}
		if sup != f.Support {
			t.Errorf("support mismatch for %s: %d vs %d", f.Items.Format(db.Dict), f.Support, sup)
		}
	}
}

// TestAprioriKCWithDependencies checks the Φ filter: declaring
// {contains_slum, contains_school} a known dependency removes it and all
// its supersets, and nothing else.
func TestAprioriKCWithDependencies(t *testing.T) {
	db := table2DB()
	deps := []Pair{{A: "contains_slum", B: "contains_school"}}
	cfg := cfg50()
	cfg.Dependencies = deps
	res, err := AprioriKC(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedDeps != 1 {
		t.Errorf("pruned dependencies = %d, want 1", res.PrunedDeps)
	}
	if res.PrunedSameFeature != 0 {
		t.Errorf("KC must not prune same-feature pairs, got %d", res.PrunedSameFeature)
	}
	a, _ := db.Dict.Lookup("contains_slum")
	b, _ := db.Dict.Lookup("contains_school")
	for _, f := range res.Frequent {
		if f.Items.Contains(a) && f.Items.Contains(b) {
			t.Errorf("dependency pair survived in %s", f.Items.Format(db.Dict))
		}
	}
	// Equivalence with the aposteriori dependency filter.
	full, _ := Apriori(db, cfg50())
	post := FilterDependenciesPost(full.Frequent, db.Dict, deps)
	if len(post) != len(res.Frequent) {
		t.Errorf("KC = %d sets, post filter = %d", len(res.Frequent), len(post))
	}
	// Unknown dependency items are ignored gracefully.
	cfg.Dependencies = []Pair{{A: "nope", B: "nada"}}
	res2, err := AprioriKC(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PrunedDeps != 0 || res2.NumFrequent(2) != 60 {
		t.Error("unknown dependencies must be no-ops")
	}
}

// TestAntiMonotone is the paper's correctness argument: every subset of a
// frequent itemset is frequent, with support at least as large.
func TestAntiMonotone(t *testing.T) {
	res, err := Apriori(paperDB(), Config{MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Frequent {
		for i := range f.Items {
			if len(f.Items) < 2 {
				continue
			}
			sub := f.Items.Without(i)
			subSup, ok := res.Support(sub)
			if !ok {
				t.Fatalf("subset %v of frequent set not frequent", sub)
			}
			if subSup < f.Support {
				t.Fatalf("subset support %d < superset support %d", subSup, f.Support)
			}
		}
	}
}

// TestNoInformationLoss verifies Section 3's argument: for a frequent set
// {A, B, C} where {A, B} is a same-feature pair, the cross-feature pairs
// {A, C} and {B, C} survive KC+.
func TestNoInformationLoss(t *testing.T) {
	db := table2DB()
	res, err := AprioriKCPlus(db, cfg50())
	if err != nil {
		t.Fatal(err)
	}
	mustHave := [][]string{
		{"contains_slum", "murderRate=high"},
		{"touches_slum", "touches_school"},
		{"contains_slum", "contains_school"},
		{"overlaps_slum", "theftRate=low"},
	}
	for _, names := range mustHave {
		s := lookupSet(t, db.Dict, names)
		if _, ok := res.Support(s); !ok {
			t.Errorf("cross-feature set %v lost by KC+", names)
		}
	}
}

func lookupSet(t *testing.T, d *itemset.Dictionary, names []string) itemset.Itemset {
	t.Helper()
	ids := make([]int32, len(names))
	for i, n := range names {
		id, ok := d.Lookup(n)
		if !ok {
			t.Fatalf("item %q not in dictionary", n)
		}
		ids[i] = id
	}
	return itemset.NewItemset(ids...)
}

// TestCountingStrategiesProduceSameResult holds the miners' bitmap
// counts to the row scan, the two ways the code counts a support: at
// each minimum support, every plain and KC+ result on both tables is
// exactly what DB.SupportHorizontal gives (checkByRowScan).
func TestCountingStrategiesProduceSameResult(t *testing.T) {
	for name, db := range map[string]*itemset.DB{"table1": paperDB(), "reconstruction": table2DB()} {
		for _, minsup := range []float64{0.2, 0.5, 0.8} {
			for _, cfg := range []Config{
				{MinSupport: minsup},
				{MinSupport: minsup, FilterSameFeature: true},
			} {
				res, err := Mine(db, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkByRowScan(t, fmt.Sprintf("%s/minsup=%g/kc+=%t", name, minsup, cfg.FilterSameFeature), db, res, cfg)
			}
		}
	}
}

// TestJoinPrefix pins aprioriGen's join: two (k-1)-itemsets of a level
// that share their first k-2 items join once, in order, to a candidate
// whose every (k-1)-subset is in the level; other pairs never join.
func TestJoinPrefix(t *testing.T) {
	cases := []struct {
		name        string
		level, want []itemset.Itemset
	}{
		{"empty level", nil, nil},
		{"1-item join", []itemset.Itemset{{1}, {2}}, []itemset.Itemset{{1, 2}}},
		{"every pair of items", []itemset.Itemset{{1}, {2}, {4}},
			[]itemset.Itemset{{1, 2}, {1, 4}, {2, 4}}},
		{"shared prefix", []itemset.Itemset{{1, 2, 3}, {1, 2, 5}, {1, 3, 5}, {2, 3, 5}},
			[]itemset.Itemset{{1, 2, 3, 5}}},
		{"prefix mismatch", []itemset.Itemset{{1, 2, 3}, {1, 4, 5}}, nil},
		{"subset missing", []itemset.Itemset{{1, 2, 3}, {1, 2, 5}, {2, 3, 5}}, nil},
	}
	for _, tc := range cases {
		level := make([]FrequentItemset, len(tc.level))
		for i, s := range tc.level {
			level[i] = FrequentItemset{Items: s}
		}
		got := aprioriGen(level)
		if len(got) != len(tc.want) {
			t.Errorf("%s: aprioriGen = %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if !got[i].Equal(tc.want[i]) {
				t.Errorf("%s: aprioriGen = %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

func TestMinSupportResolution(t *testing.T) {
	db := paperDB() // 6 transactions
	cases := []struct {
		minsup float64
		want   int
	}{
		{0.5, 3},
		{0.51, 4},
		{0.05, 1},
		{1.0, 6},
	}
	for _, tc := range cases {
		got, err := resolveMinSupport(db, Config{MinSupport: tc.minsup})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("resolve(%v) = %d, want %d", tc.minsup, got, tc.want)
		}
	}
	// Absolute count overrides.
	if got, _ := resolveMinSupport(db, Config{MinSupport: 0.5, MinSupportCount: 2}); got != 2 {
		t.Errorf("absolute override = %d", got)
	}
}

func TestMineErrors(t *testing.T) {
	db := paperDB()
	if _, err := Mine(db, Config{}); err == nil {
		t.Error("zero minsup should fail")
	}
	if _, err := Mine(db, Config{MinSupport: 1.5}); err == nil {
		t.Error("minsup > 1 should fail")
	}
	empty := itemset.NewDB(dataset.NewTable(nil))
	if _, err := Mine(empty, Config{MinSupport: 0.5}); err == nil {
		t.Error("empty database should fail")
	}
}

// TestMaxLenBound: with no length cap, the pass loop is bounded by the
// data. It stops after the first pass that finds nothing frequent, so
// the passes run one past the largest itemset: six items on the Table 2
// reconstruction at 50 %.
func TestMaxLenBound(t *testing.T) {
	for name, db := range map[string]*itemset.DB{"table1": paperDB(), "reconstruction": table2DB()} {
		for _, cfg := range []Config{cfg50(), {MinSupport: 0.5, FilterSameFeature: true}} {
			res, err := Mine(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Stats) != res.MaxLen()+1 {
				t.Errorf("%s: %d passes for largest itemset %d", name, len(res.Stats), res.MaxLen())
			}
			for i, s := range res.Stats {
				if last := i == len(res.Stats)-1; last != (s.Frequent == 0) {
					t.Errorf("%s: pass %d of %d found %d frequent", name, s.K, len(res.Stats), s.Frequent)
				}
			}
		}
	}
	res, _ := Apriori(table2DB(), cfg50())
	if res.MaxLen() != 6 {
		t.Errorf("unbounded MaxLen = %d", res.MaxLen())
	}
}

func TestPassStats(t *testing.T) {
	res, err := AprioriKCPlus(paperDB(), cfg50())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) < 2 {
		t.Fatalf("stats = %d passes", len(res.Stats))
	}
	if res.Stats[0].K != 1 || res.Stats[1].K != 2 {
		t.Error("pass numbering wrong")
	}
	if res.Stats[1].PrunedSameFeature != res.PrunedSameFeature {
		t.Error("k=2 pruning stats not mirrored to result")
	}
	// Candidate counts weakly decrease against frequents at each level.
	for _, s := range res.Stats {
		if s.Frequent > s.Candidates && s.K > 1 {
			t.Errorf("pass %d: more frequent (%d) than candidates (%d)", s.K, s.Frequent, s.Candidates)
		}
	}
}

func TestSupportValuesAgainstHandCount(t *testing.T) {
	// Hand-verified supports from Table 1.
	db := paperDB()
	res, err := Apriori(db, Config{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		names []string
		want  int
	}{
		{[]string{"contains_slum"}, 6},
		{[]string{"covers_slum"}, 2},
		{[]string{"murderRate=high", "theftRate=high"}, 2},
		{[]string{"contains_slum", "overlaps_slum", "contains_school", "touches_school"}, 5},
		{[]string{"murderRate=high", "theftRate=low", "contains_slum", "overlaps_slum",
			"contains_school", "touches_school"}, 2},
	}
	for _, tc := range cases {
		s := lookupSet(t, db.Dict, tc.names)
		got, ok := res.Support(s)
		if !ok {
			t.Errorf("%v not frequent at 10%%", tc.names)
			continue
		}
		if got != tc.want {
			t.Errorf("support(%v) = %d, want %d", tc.names, got, tc.want)
		}
	}
}

func TestParallelCountingDeterministic(t *testing.T) {
	table, err := dataset.PortoAlegreTable(), error(nil)
	if err != nil {
		t.Fatal(err)
	}
	var baseline *Result
	for _, workers := range []int{1, 0, 3, 16} {
		db := itemset.NewDB(table)
		var res *Result
		withProcs(workers, func() { res, err = Apriori(db, Config{MinSupport: 0.2}) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if len(res.Frequent) != len(baseline.Frequent) {
			t.Fatalf("workers=%d: %d itemsets, want %d", workers, len(res.Frequent), len(baseline.Frequent))
		}
		for i := range baseline.Frequent {
			if !res.Frequent[i].Items.Equal(baseline.Frequent[i].Items) ||
				res.Frequent[i].Support != baseline.Frequent[i].Support {
				t.Fatalf("workers=%d: itemset %d differs", workers, i)
			}
		}
	}
}

// TestMinSupportMonotonicity: raising the threshold can only shrink the
// frequent set, and every surviving itemset keeps its support.
func TestMinSupportMonotonicity(t *testing.T) {
	db := itemset.NewDB(dataset.Table2Reconstruction())
	var prev *Result
	for _, count := range []int{1, 2, 3, 4, 5, 6} {
		res, err := Apriori(db, Config{MinSupportCount: count})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if len(res.Frequent) > len(prev.Frequent) {
				t.Fatalf("count=%d: frequent set grew: %d > %d",
					count, len(res.Frequent), len(prev.Frequent))
			}
			for _, f := range res.Frequent {
				sup, ok := prev.Support(f.Items)
				if !ok || sup != f.Support {
					t.Fatalf("count=%d: itemset %v changed support", count, f.Items)
				}
			}
		}
		prev = res
	}
}
