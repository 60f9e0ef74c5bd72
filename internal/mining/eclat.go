package mining

import (
	"context"
	"math/bits"
	"sort"
	"time"

	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/par"
)

// Eclat mines the same frequent itemsets as Apriori with the vertical
// Eclat algorithm (Zaki): a depth-first walk over prefix equivalence
// classes, where each class member carries the tid-bitmap of its
// itemset and extensions are set intersections. Dense prefixes switch
// to the dEclat diffset representation — a child stores the rows its
// parent has and it lacks, and supports come from subtraction — which
// keeps the bitmaps sparse exactly where tidsets would be near-full.
//
// The KC+ same-feature filter and the Φ dependency filter are applied
// when a class is built: a forbidden pair kills the extension before its
// support is ever computed, which preserves the anti-monotone semantics
// of the k=2 candidate pruning in the Apriori formulation.
func Eclat(db *itemset.DB, cfg Config) (*Result, error) {
	return EclatContext(context.Background(), db, cfg)
}

// EclatContext is Eclat honouring ctx cancellation/deadlines (checked
// per equivalence class, so deep low-support recursions stop promptly)
// and emitting per-size pass events to any obs.Trace attached to ctx.
// Eclat generates no explicit candidate sets, so the synthesized pass
// stats report Candidates equal to Frequent; prunes from the Φ and
// same-feature filters are totalled on the k=2 stat.
//
// The root equivalence class is sharded across a par pool GOMAXPROCS
// wide: each top-level subtree is independent (later siblings only ever
// combine among themselves against read-only bitmaps), so workers claim
// subtrees one at a time, mine them with private bitmap pools and
// result buffers, and the buffers are merged and sorted afterwards —
// the output is identical to the sequential walk at any width.
func EclatContext(ctx context.Context, db *itemset.DB, cfg Config) (*Result, error) {
	minCount, err := resolveMinSupport(db, cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	tr := obs.FromContext(ctx)
	db.BuildTidsets()
	res := &Result{
		MinSupportCount: minCount,
		NumTransactions: db.NumTransactions(),
	}

	// Pass 1: the root equivalence class is every frequent item with its
	// tidset, in ascending ID order so prefixes extend in sorted order.
	counts := db.ItemCounts()
	var root []eclatNode
	for id, c := range counts {
		if c >= minCount {
			root = append(root, eclatNode{id: int32(id), set: db.Tidset(int32(id)), support: c})
		}
	}
	for _, n := range root {
		res.Frequent = append(res.Frequent, FrequentItemset{Items: itemset.Itemset{n.id}, Support: n.support})
	}
	if err := eclatWalk(ctx, tr, db, cfg, minCount, root, res); err != nil {
		return nil, err
	}

	// Normalise output order to match the Apriori result: by size, then
	// lexicographic item IDs. This is also what makes the parallel walk
	// deterministic — every (itemset, support) is produced exactly once,
	// so the sorted merge is byte-identical to the sequential output.
	sort.Slice(res.Frequent, func(i, j int) bool {
		a, b := res.Frequent[i].Items, res.Frequent[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return compareItems(a, b) < 0
	})
	res.Stats = enumerationStats(res, time.Since(start))
	for _, s := range res.Stats {
		tr.Pass(s.Event())
	}
	res.Duration = time.Since(start)
	return res, nil
}

// eclatWalk runs the depth-first walk below the root class, sequentially
// or sharded over a worker pool, and merges the outcome into res.
func eclatWalk(ctx context.Context, tr *obs.Trace, db *itemset.DB, cfg Config, minCount int, root []eclatNode, res *Result) error {
	words := (db.NumTransactions() + 63) / 64
	deps := buildDepSet(db.Dict, cfg.Dependencies)
	newMiner := func() *eclatMiner {
		return &eclatMiner{
			ctx:         ctx,
			dict:        db.Dict,
			minCount:    minCount,
			deps:        deps,
			sameFeature: cfg.FilterSameFeature,
			words:       words,
		}
	}
	numTx := db.NumTransactions()
	// The unit of work is one root member's whole subtree, claimed one
	// at a time, so a skewed subtree (low item IDs see the most
	// siblings) never idles the rest of the pool. Root bitmaps are the
	// DB's shared read-only tidsets, never pooled; everything deeper is
	// built from the worker's private pool.
	workers := par.Workers(0, len(root))
	miners := make([]*eclatMiner, workers)
	for w := range miners {
		miners[w] = newMiner()
	}
	if err := par.For(ctx, len(root), workers, func(w, i int) {
		// mineMember fails only with ctx.Err(), which For returns.
		_ = miners[w].mineMember(nil, root, i, false, numTx, false)
		miners[w].roots++
	}); err != nil {
		return err
	}
	for _, m := range miners {
		m.merge(res)
	}
	if workers > 1 {
		tr.Add("eclat.workers", int64(workers))
		for w, m := range miners {
			// Per-worker fan-out balance: how many subtrees each
			// worker claimed and how many itemsets they yielded.
			tr.Add(obs.WorkerCounter("eclat", w, "roots"), int64(m.roots))
			tr.Add(obs.WorkerCounter("eclat", w, "itemsets"), int64(len(m.frequent)))
		}
	}
	return nil
}

// eclatNode is one member of a prefix equivalence class: the itemset
// prefix∪{id}, represented by a tidset or (when the class is in diffset
// mode) the diffset against the prefix's tidset.
type eclatNode struct {
	id      int32
	set     []uint64
	support int
}

// eclatMiner carries one walker's immutable configuration, a free list
// of bitmap buffers (so steady-state class construction reuses released
// buffers instead of allocating), and its private output buffers. Each
// worker of the parallel walk owns one miner; they share only the
// read-only dictionary, dependency set, and root tidsets.
type eclatMiner struct {
	ctx         context.Context
	dict        *itemset.Dictionary
	minCount    int
	deps        map[[2]int32]struct{}
	sameFeature bool
	words       int
	pool        [][]uint64

	// Private output, merged into the shared Result after the walk.
	frequent   []FrequentItemset
	prunedDeps int
	prunedSame int
	// roots counts the top-level subtrees this miner claimed.
	roots int
}

// merge folds the miner's private output into the shared result; called
// after the walk (or worker pool) has fully stopped.
func (m *eclatMiner) merge(res *Result) {
	res.Frequent = append(res.Frequent, m.frequent...)
	res.PrunedDeps += m.prunedDeps
	res.PrunedSameFeature += m.prunedSame
}

func (m *eclatMiner) get() []uint64 {
	if n := len(m.pool); n > 0 {
		b := m.pool[n-1]
		m.pool = m.pool[:n-1]
		return b
	}
	return make([]uint64, m.words)
}

func (m *eclatMiner) put(b []uint64) { m.pool = append(m.pool, b) }

// mine walks one equivalence class: for each member a it emits the
// extensions a×(later siblings) that survive the pair filters and the
// support threshold, then recurses into the surviving class. classDiff
// says whether the class sets are diffsets; prefixSupport is the support
// of the class's common prefix (the diffset subtraction base). pooled
// marks class sets owned by the miner's free list (everything but the
// root's shared tidsets), released as each member's subtree completes.
func (m *eclatMiner) mine(prefix itemset.Itemset, class []eclatNode, classDiff bool, prefixSupport int, pooled bool) error {
	for i := range class {
		if err := m.mineMember(prefix, class, i, classDiff, prefixSupport, pooled); err != nil {
			return err
		}
	}
	return nil
}

// mineMember walks the subtree rooted at class[i] — the unit the
// parallel walk shards, since member i only ever combines with its later
// siblings and reads their bitmaps. It releases class[i]'s bitmap (when
// pooled) once the subtree completes.
func (m *eclatMiner) mineMember(prefix itemset.Itemset, class []eclatNode, i int, classDiff bool, prefixSupport int, pooled bool) error {
	if err := m.ctx.Err(); err != nil {
		return err
	}
	a := class[i]
	ext := make(itemset.Itemset, len(prefix)+1)
	copy(ext, prefix)
	ext[len(prefix)] = a.id
	// Dense-prefix switch: once a prefix retains most of its parent's
	// rows, children store what they lose rather than what they keep.
	childDiff := classDiff || 2*a.support > prefixSupport
	var children []eclatNode
	for j := i + 1; j < len(class); j++ {
		b := class[j]
		if v := violates(ext, b.id, m.dict, m.deps, m.sameFeature); v != violationNone {
			// Each unordered pair is first seen at the root (size-2
			// extension); deeper re-checks of other pairs never
			// re-count it.
			if len(ext) == 1 {
				switch v {
				case violationDep:
					m.prunedDeps++
				case violationSameFeature:
					m.prunedSame++
				}
			}
			continue
		}
		buf := m.get()
		var support int
		switch {
		case !classDiff && !childDiff:
			// t(Pab) = t(Pa) ∩ t(Pb)
			intersectInto(buf, a.set, b.set)
			support = popcount(buf)
		case !classDiff && childDiff:
			// d(Pab) = t(Pa) − t(Pb); σ(Pab) = σ(Pa) − |d(Pab)|
			subtractInto(buf, a.set, b.set)
			support = a.support - popcount(buf)
		default:
			// d(Pab) = d(Pb) − d(Pa); σ(Pab) = σ(Pa) − |d(Pab)|
			subtractInto(buf, b.set, a.set)
			support = a.support - popcount(buf)
		}
		if support < m.minCount {
			m.put(buf)
			continue
		}
		children = append(children, eclatNode{id: b.id, set: buf, support: support})
	}
	for _, c := range children {
		child := make(itemset.Itemset, len(ext)+1)
		copy(child, ext)
		child[len(ext)] = c.id
		m.frequent = append(m.frequent, FrequentItemset{Items: child, Support: c.support})
	}
	if len(children) > 0 {
		if err := m.mine(ext, children, childDiff, a.support, true); err != nil {
			return err
		}
	}
	// Later siblings only combine among themselves; a's bitmap is dead.
	if pooled {
		m.put(a.set)
	}
	return nil
}

// intersectInto sets dst = a & b.
func intersectInto(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

// subtractInto sets dst = a &^ b.
func subtractInto(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] &^ b[i]
	}
}

// popcount returns the number of set bits.
func popcount(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// enumerationStats synthesizes per-size pass statistics from a sorted
// result of the Eclat pattern enumeration, attributing the whole
// enumeration's wall time to pass 1 (the walk has no per-pass phases)
// and the branch-prune totals to k=2.
func enumerationStats(res *Result, elapsed time.Duration) []PassStat {
	bySize := res.CountBySize()
	maxLen := res.MaxLen()
	stats := make([]PassStat, 0, maxLen)
	for k := 1; k <= maxLen; k++ {
		s := PassStat{K: k, Candidates: bySize[k], Frequent: bySize[k]}
		if k == 1 {
			s.Duration = elapsed
		}
		if k == 2 {
			s.PrunedDeps = res.PrunedDeps
			s.PrunedSameFeature = res.PrunedSameFeature
		}
		stats = append(stats, s)
	}
	return stats
}

// violation classifies why a pattern extension is forbidden.
type violation int

// Violation kinds; violationNone means the extension is admissible.
const (
	violationNone violation = iota
	violationDep
	violationSameFeature
)

// violates reports whether adding item id to the pattern creates a
// forbidden pair (Φ dependency or same feature type) with any existing
// member, and which filter fired.
func violates(ext itemset.Itemset, id int32, d *itemset.Dictionary, deps map[[2]int32]struct{}, sameFeature bool) violation {
	for _, other := range ext {
		if other == id {
			continue
		}
		a, b := other, id
		if a > b {
			a, b = b, a
		}
		if _, bad := deps[[2]int32{a, b}]; bad {
			return violationDep
		}
		if sameFeature && d.SameFeatureType(a, b) {
			return violationSameFeature
		}
	}
	return violationNone
}
