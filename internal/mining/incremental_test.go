package mining

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
)

// patchTable builds a table from item lists.
func patchTable(rows [][]string) *dataset.Table {
	txs := make([]dataset.Transaction, len(rows))
	for i, items := range rows {
		txs[i] = dataset.Transaction{RefID: fmt.Sprintf("r%d", i), Items: items}
	}
	return dataset.NewTable(txs)
}

// resultByNames renders a result as a support map keyed by the sorted
// item names, making results comparable across dictionaries with
// different interning orders.
func resultByNames(r *Result, dict *itemset.Dictionary) map[string]int {
	out := make(map[string]int, len(r.Frequent))
	for _, f := range r.Frequent {
		names := append([]string{}, f.Items.Names(dict)...)
		sort.Strings(names)
		out[fmt.Sprint(names)] = f.Support
	}
	return out
}

// assertSameResult compares two results by (itemset names, support),
// whatever dictionary each was mined in.
func assertSameResult(t *testing.T, got *Result, gotDict *itemset.Dictionary, want *Result, wantDict *itemset.Dictionary) {
	t.Helper()
	if got.MinSupportCount != want.MinSupportCount {
		t.Fatalf("minCount = %d, want %d", got.MinSupportCount, want.MinSupportCount)
	}
	if got.NumTransactions != want.NumTransactions {
		t.Fatalf("numTransactions = %d, want %d", got.NumTransactions, want.NumTransactions)
	}
	if got.PrunedDeps != want.PrunedDeps || got.PrunedSameFeature != want.PrunedSameFeature {
		t.Fatalf("prune tallies = (%d deps, %d same-feature), want (%d, %d)",
			got.PrunedDeps, got.PrunedSameFeature, want.PrunedDeps, want.PrunedSameFeature)
	}
	g, w := resultByNames(got, gotDict), resultByNames(want, wantDict)
	if len(got.Frequent) != len(g) || len(want.Frequent) != len(w) {
		t.Fatalf("duplicate itemsets in a result: got %d/%d, want %d/%d",
			len(g), len(got.Frequent), len(w), len(want.Frequent))
	}
	for k, sup := range w {
		if g[k] != sup {
			t.Fatalf("support(%s) = %d, want %d", k, g[k], sup)
		}
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			t.Fatalf("spurious frequent itemset %s", k)
		}
	}
}

// runPatchEquivalence mines prev rows, patches the result forward to
// next rows, and checks PatchResultContext against a from-scratch mine
// of next. The patch runs on next's own database, built as a cold mine
// builds it, with prev's itemsets and the row deltas translated into
// its IDs by name (itemset.Dictionary.LookupAll): an itemset naming an
// item next lacks is dropped, and an old row drops such names. With one
// dictionary the patched result must equal the oracle's in order too.
func runPatchEquivalence(t *testing.T, cfg Config, prevRows, nextRows [][]string, newFromOld []int, editedRows []int) PatchStats {
	t.Helper()
	ctx := context.Background()

	pdb := itemset.NewDB(patchTable(prevRows))
	prevRes, err := MineContext(ctx, pdb, cfg)
	if err != nil {
		t.Fatalf("mine prev: %v", err)
	}

	db := itemset.NewDB(patchTable(nextRows))
	prev := &Result{MinSupportCount: prevRes.MinSupportCount}
	for _, f := range prevRes.Frequent {
		if items, ok := db.Dict.LookupAll(f.Items.Names(pdb.Dict)); ok {
			prev.Frequent = append(prev.Frequent, FrequentItemset{Items: items, Support: f.Support})
		}
	}
	row := func(names []string) itemset.Itemset {
		items, _ := db.Dict.LookupAll(names)
		return items
	}
	var deltas []RowDelta
	edited := make(map[int]bool, len(editedRows))
	for _, r := range editedRows {
		edited[r] = true
	}
	survives := make(map[int]bool, len(newFromOld))
	for j, old := range newFromOld {
		survives[old] = true
		if old >= 0 && !edited[j] {
			continue
		}
		d := RowDelta{New: row(nextRows[j])}
		if old >= 0 {
			d.Old = row(prevRows[old])
		}
		deltas = append(deltas, d)
	}
	for old := range prevRows {
		if !survives[old] {
			deltas = append(deltas, RowDelta{Old: row(prevRows[old])})
		}
	}

	got, stats, err := PatchResultContext(ctx, db, prev, cfg, deltas)
	if err != nil {
		t.Fatalf("patch: %v", err)
	}

	oracleDB := itemset.NewDB(patchTable(nextRows))
	want, err := MineContext(ctx, oracleDB, cfg)
	if err != nil {
		t.Fatalf("mine oracle: %v", err)
	}
	assertSameResult(t, got, db.Dict, want, oracleDB.Dict)
	if !slices.EqualFunc(got.Frequent, want.Frequent, func(a, b FrequentItemset) bool {
		return a.Support == b.Support && a.Items.Equal(b.Items)
	}) {
		t.Fatalf("patched order differs from the cold mine's:\n got %v\nwant %v", got.Frequent, want.Frequent)
	}
	return stats
}

func TestPatchResultSingleEdit(t *testing.T) {
	prev := [][]string{
		{"a", "b", "c"},
		{"a", "b"},
		{"a", "c"},
		{"b", "c"},
		{"a", "b", "c"},
		{"d"},
		{"a", "d"},
		{"b", "d"},
	}
	next := append([][]string{}, prev...)
	next[5] = []string{"a", "b", "c"} // {a,b,c} reaches support 3 = minCount
	stats := runPatchEquivalence(t, Config{MinSupport: 0.375},
		prev, next, identityMap(len(prev)), []int{5})
	if stats.Rewalk {
		t.Fatalf("single edit of 8 rows should take the incremental path")
	}
	if stats.Discovered == 0 {
		t.Errorf("expected the walk to discover newly frequent itemsets")
	}
}

func TestPatchResultInsertAndDelete(t *testing.T) {
	prev := [][]string{
		{"a", "b"}, {"a", "b"}, {"a", "c"}, {"b", "c"},
		{"c", "d"}, {"a", "d"}, {"b", "d"}, {"a", "b", "c"},
		{"a"}, {"b"},
	}
	// Delete row 4, append two rows.
	newFromOld := []int{0, 1, 2, 3, 5, 6, 7, 8, 9, -1, -1}
	next := [][]string{
		prev[0], prev[1], prev[2], prev[3], prev[5], prev[6], prev[7], prev[8], prev[9],
		{"c", "d"}, {"a", "b", "d"},
	}
	// 0.15 keeps the absolute count at 2 across 10 -> 11 transactions,
	// which the incremental path requires.
	stats := runPatchEquivalence(t, Config{MinSupport: 0.15},
		prev, next, newFromOld, []int{9, 10})
	if stats.Rewalk {
		t.Fatalf("3-row delta of 10 rows should take the incremental path")
	}
}

// TestPatchResultItemVanishes edits away every row that holds "e", so
// the successor's dictionary lacks it: the previous {e} and {a, e} do
// not translate and are dropped, and the old rows drop "e".
func TestPatchResultItemVanishes(t *testing.T) {
	prev := [][]string{
		{"a", "e"}, {"a", "b", "e"}, {"a", "b"}, {"b", "c"}, {"a", "c"},
		{"a", "b"}, {"c"}, {"b", "c"}, {"a"}, {"b"},
	}
	next := append([][]string{}, prev...)
	next[0] = []string{"a", "c"}
	next[1] = []string{"a", "b"}
	stats := runPatchEquivalence(t, Config{MinSupport: 0.2},
		prev, next, identityMap(len(prev)), []int{0, 1})
	if stats.Rewalk {
		t.Fatalf("2 edits of 10 rows should take the incremental path")
	}
}

func TestPatchResultFilters(t *testing.T) {
	// Items that parse as spatial predicates so the same-feature filter
	// and Φ dependencies engage (see itemset.Dictionary interning).
	prev := [][]string{
		{"touches_water", "contains_school", "closeTo_water"},
		{"touches_water", "contains_school"},
		{"touches_water", "closeTo_water"},
		{"contains_school", "closeTo_water"},
		{"touches_water", "contains_school", "closeTo_water"},
		{"crosses_river"},
	}
	next := append([][]string{}, prev...)
	next[5] = []string{"touches_water", "contains_school", "crosses_river"}
	cfg := Config{
		MinSupport:        0.3,
		FilterSameFeature: true,
		Dependencies:      []Pair{{A: "contains_school", B: "closeTo_water"}},
	}
	stats := runPatchEquivalence(t, cfg, prev, next, identityMap(len(prev)), []int{5})
	if stats.Rewalk {
		t.Fatalf("expected incremental path")
	}
}

// TestPatchResultRecomputesPruneTallies makes an item of a same-feature
// pair newly frequent, so the successor's k=2 prune tally differs from
// the parent's; the patched result must report the successor's count
// (assertSameResult compares the tallies against the oracle).
func TestPatchResultRecomputesPruneTallies(t *testing.T) {
	prev := [][]string{
		{"contains_school", "touches_water"},
		{"contains_school", "touches_water"},
		{"contains_school", "closeTo_school"},
		{"touches_water"},
		{"contains_school"},
		{"touches_water"},
	}
	next := append([][]string{}, prev...)
	next[3] = []string{"touches_water", "closeTo_school"}
	cfg := Config{MinSupport: 0.3, FilterSameFeature: true}
	stats := runPatchEquivalence(t, cfg, prev, next, identityMap(len(prev)), []int{3})
	if stats.Rewalk {
		t.Fatalf("single edit of 6 rows should take the incremental path")
	}
}

func TestPatchResultRewalkFallbacks(t *testing.T) {
	rows := [][]string{{"a", "b"}, {"a", "b"}, {"a", "c"}, {"b", "c"}}
	db := itemset.NewDB(patchTable(rows))
	cfg := Config{MinSupport: 0.5}
	ctx := context.Background()

	// No previous result: must rewalk.
	_, stats, err := PatchResultContext(ctx, db, nil, cfg, nil)
	if err != nil {
		t.Fatalf("patch: %v", err)
	}
	if !stats.Rewalk {
		t.Fatalf("nil prev must rewalk")
	}

	// Huge edit batch relative to the database: must rewalk.
	prev, err := MineContext(ctx, db, cfg)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	deltas := make([]RowDelta, 3)
	for i := range deltas {
		deltas[i] = RowDelta{Old: db.Rows[i], New: db.Rows[i]}
	}
	_, stats, err = PatchResultContext(ctx, db, prev, cfg, deltas)
	if err != nil {
		t.Fatalf("patch: %v", err)
	}
	if !stats.Rewalk {
		t.Fatalf("oversized edit batch must rewalk")
	}
}

func TestPatchResultRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alphabet := []string{"a", "b", "c", "d", "e", "f"}
	randomRow := func() []string {
		var items []string
		for _, it := range alphabet {
			if rng.Float64() < 0.45 {
				items = append(items, it)
			}
		}
		return items
	}
	for trial := 0; trial < 20; trial++ {
		n := 12 + rng.Intn(8)
		prev := make([][]string, n)
		for i := range prev {
			prev[i] = randomRow()
		}
		next := append([][]string{}, prev...)
		r := rng.Intn(n)
		next[r] = randomRow()
		cfg := Config{MinSupport: 0.15 + 0.2*rng.Float64()}
		runPatchEquivalence(t, cfg, prev, next, identityMap(n), []int{r})
	}
}

func identityMap(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
