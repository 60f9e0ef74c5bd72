// Package mining implements the paper's frequent spatial pattern miners:
// classic Apriori (the baseline), Apriori-KC (which removes candidate
// pairs listed in a background-knowledge dependency set Φ), and
// Apriori-KC+ (the paper's contribution: Apriori-KC plus removal of every
// candidate pair whose two predicates share the same relevant feature
// type). All pruning happens in pass k = 2, where the anti-monotone
// property guarantees no superset of a removed pair can ever be generated
// — Listing 1 of the paper.
//
// The package also generates association rules with the standard
// interestingness measures, and provides closed/maximal post-filters (the
// paper's future-work direction) and an aposteriori same-feature filter
// used by the filter-placement ablation.
package mining

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/par"
)

// Pair is an unordered pair of item names, used for the dependency set Φ.
type Pair struct {
	A, B string
}

// Config parameterises a mining run.
type Config struct {
	// MinSupport is the relative minimum support in (0, 1]. Ignored when
	// MinSupportCount is positive.
	MinSupport float64
	// MinSupportCount is the absolute minimum support count; overrides
	// MinSupport when positive.
	MinSupportCount int
	// Dependencies is Φ, the background-knowledge pairs removed from C2
	// (Apriori-KC). Pairs whose items do not occur in the data are
	// ignored.
	Dependencies []Pair
	// FilterSameFeature enables the Apriori-KC+ step: remove every C2
	// pair whose items are spatial predicates with the same feature type.
	FilterSameFeature bool
}

// PassStat records one Apriori pass for the efficiency figures.
type PassStat struct {
	// K is the itemset size of the pass.
	K int
	// Candidates counts C_k before any filtering.
	Candidates int
	// PrunedDeps and PrunedSameFeature count pairs removed at k=2.
	PrunedDeps, PrunedSameFeature int
	// Frequent counts L_k.
	Frequent int
	// Duration is the wall-clock time of the pass.
	Duration time.Duration
}

// Event converts the pass statistics into an observability pass event.
func (p PassStat) Event() obs.PassEvent {
	return obs.PassEvent{
		K:                 p.K,
		Candidates:        p.Candidates,
		PrunedDeps:        p.PrunedDeps,
		PrunedSameFeature: p.PrunedSameFeature,
		Frequent:          p.Frequent,
		Duration:          p.Duration,
	}
}

// FrequentItemset couples an itemset with its absolute support count.
type FrequentItemset struct {
	Items   itemset.Itemset
	Support int
}

// Result is the outcome of a mining run.
type Result struct {
	// Frequent lists every frequent itemset of size >= 1, ordered by
	// size then lexicographically by item IDs.
	Frequent []FrequentItemset
	// Stats has one entry per executed pass.
	Stats []PassStat
	// MinSupportCount is the resolved absolute threshold.
	MinSupportCount int
	// NumTransactions is the database size.
	NumTransactions int
	// Duration is the total mining wall-clock time.
	Duration time.Duration
	// PrunedDeps / PrunedSameFeature total the k=2 removals.
	PrunedDeps, PrunedSameFeature int

	// supportOnce guards the one-time build of supportByKey, so racing
	// first calls to Support are safe.
	supportOnce  sync.Once
	supportByKey map[string]int
}

// Support returns the absolute support count of a frequent itemset from
// the result, and whether the set is frequent. The lookup index is built
// on first use (mining itself never needs it); Support is safe for
// concurrent use, and a lookup does not allocate.
func (r *Result) Support(s itemset.Itemset) (int, bool) {
	r.supportOnce.Do(r.indexSupports)
	var buf [64]byte
	c, ok := r.supportByKey[string(s.AppendKey(buf[:0]))]
	return c, ok
}

// indexSupports builds supportByKey. The keys are cut from one string
// holding every frequent itemset's key back to back.
func (r *Result) indexSupports() {
	n := 0
	for _, f := range r.Frequent {
		n += len(f.Items)
	}
	buf := make([]byte, 0, 4*n)
	for _, f := range r.Frequent {
		buf = f.Items.AppendKey(buf)
	}
	keys := string(buf)
	r.supportByKey = make(map[string]int, len(r.Frequent))
	for _, f := range r.Frequent {
		end := 4 * len(f.Items)
		r.supportByKey[keys[:end]] = f.Support
		keys = keys[end:]
	}
}

// CountBySize returns a map from itemset size to the number of frequent
// itemsets of that size.
func (r *Result) CountBySize() map[int]int {
	out := make(map[int]int)
	for _, f := range r.Frequent {
		out[len(f.Items)]++
	}
	return out
}

// NumFrequent returns the number of frequent itemsets with at least
// minSize items; the paper reports sizes >= 2.
func (r *Result) NumFrequent(minSize int) int {
	n := 0
	for _, f := range r.Frequent {
		if len(f.Items) >= minSize {
			n++
		}
	}
	return n
}

// MaxLen returns the size of the largest frequent itemset.
func (r *Result) MaxLen() int {
	m := 0
	for _, f := range r.Frequent {
		if len(f.Items) > m {
			m = len(f.Items)
		}
	}
	return m
}

// Apriori runs the classic algorithm: no dependency filter, no
// same-feature filter.
func Apriori(db *itemset.DB, cfg Config) (*Result, error) {
	return AprioriContext(context.Background(), db, cfg)
}

// AprioriContext is Apriori honouring ctx cancellation/deadlines and
// emitting pass events to any obs.Trace attached to ctx.
func AprioriContext(ctx context.Context, db *itemset.DB, cfg Config) (*Result, error) {
	cfg.Dependencies = nil
	cfg.FilterSameFeature = false
	return MineContext(ctx, db, cfg)
}

// AprioriKC runs Apriori with the dependency set Φ removed from C2.
func AprioriKC(db *itemset.DB, cfg Config) (*Result, error) {
	return AprioriKCContext(context.Background(), db, cfg)
}

// AprioriKCContext is AprioriKC honouring ctx cancellation/deadlines and
// emitting pass events to any obs.Trace attached to ctx.
func AprioriKCContext(ctx context.Context, db *itemset.DB, cfg Config) (*Result, error) {
	cfg.FilterSameFeature = false
	return MineContext(ctx, db, cfg)
}

// AprioriKCPlus runs the paper's algorithm: Φ removal plus same-feature
// pair removal at k = 2.
func AprioriKCPlus(db *itemset.DB, cfg Config) (*Result, error) {
	return AprioriKCPlusContext(context.Background(), db, cfg)
}

// AprioriKCPlusContext is AprioriKCPlus honouring ctx
// cancellation/deadlines and emitting pass events to any obs.Trace
// attached to ctx.
func AprioriKCPlusContext(ctx context.Context, db *itemset.DB, cfg Config) (*Result, error) {
	cfg.FilterSameFeature = true
	return MineContext(ctx, db, cfg)
}

// Mine is the generic engine behind the three named algorithms, following
// Listing 1 of the paper.
func Mine(db *itemset.DB, cfg Config) (*Result, error) {
	return MineContext(context.Background(), db, cfg)
}

// MineContext is Mine with cancellation and observability: ctx is checked
// between passes and periodically inside support counting (a cancelled
// run returns ctx.Err() promptly and discards partial output), and each
// pass is reported to the obs.Trace attached to ctx, if any.
func MineContext(ctx context.Context, db *itemset.DB, cfg Config) (*Result, error) {
	minCount, err := resolveMinSupport(db, cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	start := time.Now()
	db.BuildTidsets()
	res := &Result{
		MinSupportCount: minCount,
		NumTransactions: db.NumTransactions(),
	}
	depSet := buildDepSet(db.Dict, cfg.Dependencies)

	// Pass 1: large 1-predicate sets.
	pass1 := time.Now()
	counts := db.ItemCounts()
	// Ascending-ID iteration makes the level lexicographically sorted by
	// construction — the order aprioriGen's block join expects.
	var level []FrequentItemset
	for id, c := range counts {
		if c >= minCount {
			level = append(level, FrequentItemset{Items: itemset.Itemset{int32(id)}, Support: c})
		}
	}
	res.addLevel(level)
	stat1 := PassStat{K: 1, Candidates: db.Dict.Len(), Frequent: len(level), Duration: time.Since(pass1)}
	res.Stats = append(res.Stats, stat1)
	tr.Pass(stat1.Event())

	for k := 2; len(level) > 0; k++ {
		// Long low-support runs honour cancellation between passes.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		passStart := time.Now()
		stat := PassStat{K: k}

		candidates := aprioriGen(level)
		stat.Candidates = len(candidates)

		if k == 2 {
			candidates, stat.PrunedDeps, stat.PrunedSameFeature =
				filterPairs(db.Dict, candidates, depSet, cfg.FilterSameFeature)
			res.PrunedDeps = stat.PrunedDeps
			res.PrunedSameFeature = stat.PrunedSameFeature
		}

		supports := countVertical(ctx, db, candidates)
		// A cancellation inside the counters leaves partial supports;
		// discard them rather than emit a wrong level.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// aprioriGen emits candidates in lexicographic order and the
		// filters preserve it, so the next level is sorted by
		// construction.
		next := make([]FrequentItemset, 0, len(candidates))
		for i, c := range candidates {
			if supports[i] >= minCount {
				next = append(next, FrequentItemset{Items: c, Support: supports[i]})
			}
		}
		stat.Frequent = len(next)
		stat.Duration = time.Since(passStart)
		res.Stats = append(res.Stats, stat)
		tr.Pass(stat.Event())
		res.addLevel(next)
		level = next
	}
	res.Duration = time.Since(start)
	return res, nil
}

// minSupportEps is the relative tolerance of the MinSupport×N ceiling.
// Float64 multiplication is accurate to ~1e-16 relative, so 1e-9 is
// orders of magnitude wider than any rounding jitter while far smaller
// than the 1/N quantum that separates genuine thresholds.
const minSupportEps = 1e-9

// resolveMinSupport converts the configured threshold to an absolute
// count, validating the configuration.
func resolveMinSupport(db *itemset.DB, cfg Config) (int, error) {
	if db.NumTransactions() == 0 {
		return 0, fmt.Errorf("mining: empty database")
	}
	if cfg.MinSupportCount > 0 {
		return cfg.MinSupportCount, nil
	}
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return 0, fmt.Errorf("mining: MinSupport must be in (0, 1], got %v", cfg.MinSupport)
	}
	// Ceiling: a set is frequent when support/N >= MinSupport. The
	// ceiling must be epsilon-tolerant: binary-float jitter in the
	// product (0.1×30 = 3.0000000000000004) would otherwise inflate the
	// threshold by one and silently drop itemsets the paper's
	// support/N >= minsup definition counts as frequent.
	n := float64(db.NumTransactions())
	v := cfg.MinSupport * n
	count := int(math.Ceil(v - v*minSupportEps))
	if count < 1 {
		count = 1
	}
	return count, nil
}

// buildDepSet resolves the Φ pairs to interned ID pairs. Unknown items are
// skipped (they cannot occur in any candidate anyway).
func buildDepSet(d *itemset.Dictionary, deps []Pair) map[[2]int32]struct{} {
	if len(deps) == 0 {
		return nil
	}
	set := make(map[[2]int32]struct{}, len(deps))
	for _, p := range deps {
		a, okA := d.Lookup(p.A)
		b, okB := d.Lookup(p.B)
		if !okA || !okB {
			continue
		}
		if a > b {
			a, b = b, a
		}
		set[[2]int32{a, b}] = struct{}{}
	}
	return set
}

// filterPairs applies the k=2 filters of Apriori-KC (Φ) and Apriori-KC+
// (same feature type), returning the surviving candidates and the two
// removal counts.
func filterPairs(d *itemset.Dictionary, candidates []itemset.Itemset, deps map[[2]int32]struct{}, sameFeature bool) ([]itemset.Itemset, int, int) {
	out := candidates[:0]
	prunedDeps, prunedSame := 0, 0
	for _, c := range candidates {
		if len(deps) > 0 {
			key := [2]int32{c[0], c[1]}
			if _, dep := deps[key]; dep {
				prunedDeps++
				continue
			}
		}
		if sameFeature && d.SameFeatureType(c[0], c[1]) {
			prunedSame++
			continue
		}
		out = append(out, c)
	}
	return out, prunedDeps, prunedSame
}

// aprioriGen produces C_k from L_{k-1}: the join of prefix-sharing pairs
// followed by the subset prune (every (k-1)-subset must be frequent).
// The level is sorted lexicographically, so equal-(k-2)-prefix itemsets
// form contiguous blocks and the join runs block-locally — O(Σ block²)
// pairs instead of O(L²). The subset prune hashes the level's itemsets
// to integers (no Key() strings, no subset copies); a hash collision can
// only admit an extra candidate whose support count then rejects it, so
// results are unaffected. Candidates come out in lexicographic order,
// carved from a chunked arena (one allocation per ~thousand candidates).
func aprioriGen(level []FrequentItemset) []itemset.Itemset {
	if len(level) == 0 {
		return nil
	}
	n := len(level[0].Items) // k-1
	var prev map[uint64]struct{}
	if n >= 2 { // the k=2 join needs no subset prune
		prev = make(map[uint64]struct{}, len(level))
		for _, f := range level {
			prev[hashItems(f.Items, -1)] = struct{}{}
		}
	}
	var out []itemset.Itemset
	var arena []int32
	cand := make(itemset.Itemset, n+1) // join scratch, copied only on survival
	for bs := 0; bs < len(level); {
		// The block is the run sharing the first k-2 items.
		be := bs + 1
		for be < len(level) && equalPrefix(level[bs].Items, level[be].Items, n-1) {
			be++
		}
		for i := bs; i < be; i++ {
			copy(cand, level[i].Items)
			for j := i + 1; j < be; j++ {
				cand[n] = level[j].Items[n-1]
				if allSubsetsInLevel(cand, prev) {
					if len(arena)+n+1 > cap(arena) {
						arena = make([]int32, 0, 1024*(n+1))
					}
					s := len(arena)
					arena = append(arena, cand...)
					out = append(out, itemset.Itemset(arena[s:len(arena):len(arena)]))
				}
			}
		}
		bs = be
	}
	return out
}

// equalPrefix reports whether the first p items of a and b match.
func equalPrefix(a, b itemset.Itemset, p int) bool {
	for i := 0; i < p; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hashItems is FNV-1a over the items, skipping the drop index (-1 keeps
// all items) — the (k-1)-subset hash without building the subset.
func hashItems(s itemset.Itemset, drop int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i, v := range s {
		if i == drop {
			continue
		}
		h ^= uint64(uint32(v))
		h *= prime64
	}
	return h
}

// allSubsetsInLevel implements the Apriori prune step for a candidate of
// size k: every (k-1)-subset must appear in the previous level. The two
// subsets dropping one of the candidate's last two items are its join
// parents — frequent by construction — so only the first k-2 drop
// positions are probed.
func allSubsetsInLevel(c itemset.Itemset, prev map[uint64]struct{}) bool {
	if len(c) <= 2 {
		return true
	}
	for drop := 0; drop < len(c)-2; drop++ {
		if _, ok := prev[hashItems(c, drop)]; !ok {
			return false
		}
	}
	return true
}

// compareItems orders itemsets lexicographically by IDs, shorter first
// on equal prefixes — the sortLevel order.
func compareItems(a, b itemset.Itemset) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// cancelCheckStride bounds how many hot-loop iterations run between
// ctx.Err() checks: rare enough to be free, frequent enough that a
// cancelled pass stops promptly.
const cancelCheckStride = 256

// countVertical computes candidate supports with a prefix-cached
// vertical counter, fanning large candidate sets out over a par pool
// GOMAXPROCS wide: candidates are independent, and the sorted stream is
// cut into one contiguous chunk per worker so each chunk's counter keeps
// its prefix cache warm. A cancelled ctx makes the counters bail out
// early; the caller must check ctx before using the (then partial)
// supports.
func countVertical(ctx context.Context, db *itemset.DB, candidates []itemset.Itemset) []int {
	supports := make([]int, len(candidates))
	workers := par.Workers(0, len(candidates))
	// Below a few hundred candidates the goroutine overhead dominates.
	if len(candidates) < 256 {
		workers = 1
	}
	chunk := (len(candidates) + workers - 1) / workers
	// The caller checks ctx, so For's error adds nothing.
	_ = par.For(ctx, workers, workers, func(_, c int) {
		vc := db.NewVerticalCounter()
		lo, hi := min(c*chunk, len(candidates)), min((c+1)*chunk, len(candidates))
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelCheckStride == 0 && ctx.Err() != nil {
				return
			}
			supports[i] = vc.Support(candidates[i])
		}
	})
	return supports
}

// addLevel appends a pass's frequent sets to the result; the support
// index is built lazily by Result.Support.
func (r *Result) addLevel(level []FrequentItemset) {
	r.Frequent = append(r.Frequent, level...)
}
