// Incremental mining: patch a previous Result to reflect row-level
// edits of the transaction database instead of re-running the engine.
//
// The patch is exact, not approximate. Support counts are additively
// corrected per changed row; itemsets that fall below minsup are
// dropped; and newly frequent itemsets are discovered by a depth-first
// walk restricted to subsets of the changed rows' new item sets — any
// itemset whose support increased must be contained in at least one
// changed row, so the restricted walk cannot miss one. The walk prunes
// with true supports from the successor database's vertical bitmaps and
// applies the same Φ-dependency / same-feature pair filters as the full
// engines, so the patched result is identical to a from-scratch run.
package mining

import (
	"context"
	"sort"
	"time"

	"repro/internal/itemset"
	"repro/internal/obs"
)

// RowDelta describes one transaction whose content differs between the
// previously mined table and its successor. Old is nil or empty for
// inserted rows, New is nil for deleted rows; both hold the successor
// database's IDs. An old row leaves out the items the successor's
// dictionary lacks: no itemset of the successor holds them.
type RowDelta struct {
	Old itemset.Itemset
	New itemset.Itemset
}

// PatchStats reports how a result patch was computed.
type PatchStats struct {
	// Patched counts previously frequent itemsets whose supports were
	// additively corrected; Dropped how many fell below minsup;
	// Discovered how many newly frequent itemsets the restricted walk
	// found.
	Patched, Dropped, Discovered int
	// Rewalk is set when patching was not applicable (threshold count
	// changed, no previous result, or the edit batch rivals the database
	// size) and the engine re-ran on the successor database instead.
	Rewalk bool
}

// PatchResultContext produces the mining result of the successor
// database db given the previous result prev of the same configuration
// and the row deltas that separate the previous table from db's. prev
// and the deltas hold db's IDs: a previous itemset that names an item
// db's dictionary lacks has support 0 in db and is left out of prev.
// The pair filters decide from item semantics (each item's feature
// type, and Φ by name), so db may be built in any dictionary, such as
// the one a cold mine of its table builds.
//
// The incremental path applies when the absolute minsup count is
// unchanged and the edit batch is small relative to the database;
// otherwise the generic engine re-runs on db. Either way the returned
// Frequent list is identical (same order, same supports) to mining db
// from scratch under cfg.
//
// Pass statistics are not re-derived on the incremental path: Stats is
// empty. The PrunedDeps/PrunedSameFeature tallies are recomputed from
// db — they are a pure function of the frequent
// 1-items and the pair filters (the count of filtered unordered pairs
// at k=2, as the Apriori and Eclat engines define them), and edits can
// change which single items are frequent.
func PatchResultContext(ctx context.Context, db *itemset.DB, prev *Result, cfg Config, deltas []RowDelta) (*Result, PatchStats, error) {
	var stats PatchStats
	minCount, err := resolveMinSupport(db, cfg)
	if err != nil {
		return nil, stats, err
	}
	tr := obs.FromContext(ctx)
	if prev == nil || minCount != prev.MinSupportCount || 2*len(deltas) > db.NumTransactions() {
		stats.Rewalk = true
		tr.Add("delta.mine.rewalks", 1)
		res, err := MineContext(ctx, db, cfg)
		return res, stats, err
	}
	start := time.Now()

	// Phase 1: correct the supports of every previously frequent
	// itemset by its membership change across the edited rows.
	kept := make([]FrequentItemset, 0, len(prev.Frequent))
	prevKeys := make(map[string]struct{}, len(prev.Frequent))
	for _, f := range prev.Frequent {
		prevKeys[f.Items.Key()] = struct{}{}
		sup := f.Support
		for _, d := range deltas {
			if d.Old.ContainsAll(f.Items) {
				sup--
			}
			if d.New.ContainsAll(f.Items) {
				sup++
			}
		}
		if sup >= minCount {
			kept = append(kept, FrequentItemset{Items: f.Items, Support: sup})
		} else {
			stats.Dropped++
		}
	}
	stats.Patched = len(prev.Frequent)

	// Phase 2: discover newly frequent itemsets. Any itemset that became
	// frequent gained support, so it is a subset of some changed row's
	// new items; walk exactly that space, pruning by true support
	// (anti-monotone) and the pair filters.
	changed := make([]itemset.Itemset, 0, len(deltas))
	for _, d := range deltas {
		if d.New != nil {
			changed = append(changed, d.New)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	discovered := discoverNew(ctx, db, cfg, minCount, prevKeys, changed)
	stats.Discovered = len(discovered)

	all := append(kept, discovered...)
	sort.SliceStable(all, func(i, j int) bool {
		if len(all[i].Items) != len(all[j].Items) {
			return len(all[i].Items) < len(all[j].Items)
		}
		return compareItems(all[i].Items, all[j].Items) < 0
	})
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	prunedDeps, prunedSame := countPairPrunes(db, cfg, minCount)
	tr.Add("delta.itemsets.patched", int64(stats.Patched))
	tr.Add("delta.itemsets.dropped", int64(stats.Dropped))
	tr.Add("delta.itemsets.discovered", int64(stats.Discovered))
	return &Result{
		Frequent:          all,
		MinSupportCount:   minCount,
		NumTransactions:   db.NumTransactions(),
		Duration:          time.Since(start),
		PrunedDeps:        prunedDeps,
		PrunedSameFeature: prunedSame,
	}, stats, nil
}

// countPairPrunes recounts the k=2 pair-filter tallies over the
// successor database: every unordered pair of frequent 1-items removed by the Φ
// dependency set or the same-feature filter, dependency precedence
// first — exactly what Apriori's C2 filterPairs and Eclat's root-level
// walk count on a cold run.
func countPairPrunes(db *itemset.DB, cfg Config, minCount int) (deps, same int) {
	depSet := buildDepSet(db.Dict, cfg.Dependencies)
	if len(depSet) == 0 && !cfg.FilterSameFeature {
		return 0, 0
	}
	counts := db.ItemCounts()
	f1 := make([]int32, 0, len(counts))
	for id, c := range counts {
		if c >= minCount {
			f1 = append(f1, int32(id))
		}
	}
	for i, a := range f1 {
		for _, b := range f1[i+1:] {
			if _, bad := depSet[[2]int32{a, b}]; bad {
				deps++
				continue
			}
			if cfg.FilterSameFeature && db.Dict.SameFeatureType(a, b) {
				same++
			}
		}
	}
	return deps, same
}

// discoverNew walks the subsets of the changed rows' new item sets in
// ascending-ID order, returning those frequent under minCount, allowed
// by the pair filters, and not previously frequent. The walk visits
// each candidate set exactly once (combinations, not permutations), so
// the output needs no deduplication; it prunes a branch as soon as the
// true support drops below minCount or no changed row contains the
// prefix.
func discoverNew(ctx context.Context, db *itemset.DB, cfg Config, minCount int, prevKeys map[string]struct{}, changed []itemset.Itemset) []FrequentItemset {
	if len(changed) == 0 {
		return nil
	}
	universe := make(map[int32]struct{})
	for _, row := range changed {
		for _, id := range row {
			universe[id] = struct{}{}
		}
	}
	items := make([]int32, 0, len(universe))
	for id := range universe {
		items = append(items, id)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })

	vc := db.NewVerticalCounter()
	depSet := buildDepSet(db.Dict, cfg.Dependencies)
	var out []FrequentItemset

	// walk extends x (ascending, contained in every changed[live] row)
	// with items after position from in the universe.
	var walk func(x itemset.Itemset, live []int, from int)
	walk = func(x itemset.Itemset, live []int, from int) {
		if ctx.Err() != nil {
			return
		}
		for p := from; p < len(items); p++ {
			id := items[p]
			var next []int
			for _, li := range live {
				if changed[li].Contains(id) {
					next = append(next, li)
				}
			}
			if len(next) == 0 {
				continue
			}
			if len(x) > 0 && violates(x, id, db.Dict, depSet, cfg.FilterSameFeature) != violationNone {
				continue
			}
			ext := append(append(itemset.Itemset{}, x...), id)
			sup := vc.Support(ext)
			if sup < minCount {
				continue
			}
			if _, known := prevKeys[ext.Key()]; !known {
				out = append(out, FrequentItemset{Items: ext, Support: sup})
			}
			walk(ext, next, p+1)
		}
	}
	allRows := make([]int, len(changed))
	for i := range changed {
		allRows[i] = i
	}
	walk(nil, allRows, 0)
	return out
}
