// Package colocation mines spatial co-location patterns: sets of
// feature types whose instances are frequently located near each other.
// Unlike the reference-feature transaction model of the source paper
// (one transaction per reference feature), co-location treats every
// feature type symmetrically: a row instance of a candidate set
// {f1, ..., fk} is a clique of instances — one per type — in which
// every pair lies within the neighborhood distance. The prevalence
// measure is the participation index
//
//	PI(c) = min over fi in c of  |distinct fi instances in any row of c| / |fi instances|
//
// which is anti-monotone (adding a type can only shrink every
// participation ratio), so a level-wise Apriori-style walk prunes
// soundly on it.
//
// The engine materializes the neighbor relation once per ordered type
// pair into a flat CSR layout (one offsets array plus one ids array):
// each unordered type pair is one unit of a worker pool GOMAXPROCS
// wide, which joins the two types' index.Layers in one R-tree-vs-R-tree
// traversal and refines the candidates exactly: by the point–point
// decision when every instance is a point, on prepared geometry
// otherwise. It then
// walks candidate type sets level by level, extending each prevalent
// set's row-instance table by sorted-list intersection of the CSR rows.
// The walk is joinless: it first screens each candidate with the star
// participation index — an anti-monotone upper bound on the clique PI
// computed from per-instance star neighborhoods — and materializes rows
// only for candidates whose upper bound clears MinPI. Output is
// identical at any worker count, and equal to MineBruteForce.
package colocation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/par"
)

// Config parameterises a co-location mining run. Its JSON form is the
// wire configuration of POST /v1/colocate.
type Config struct {
	// Distance is the neighborhood threshold: two instances are
	// neighbors when their exact geometric distance is <= Distance.
	Distance float64 `json:"distance"`
	// MinPI is the minimum participation index in (0, 1]; only feature
	// type sets with PI >= MinPI are reported.
	MinPI float64 `json:"minPI"`
	// MaxSize caps the largest pattern size mined (0 = unlimited).
	MaxSize int `json:"maxSize,omitempty"`
	// TopK, when positive, keeps only the k highest-PI prevalent
	// patterns (ties broken by smaller size, then lexicographic type
	// names; equal patterns cannot tie). 0 reports every prevalent
	// pattern.
	TopK int `json:"topK,omitempty"`
}

// Validate checks the configuration bounds.
func (c Config) Validate() error {
	if math.IsNaN(c.Distance) || math.IsInf(c.Distance, 0) || c.Distance < 0 {
		return fmt.Errorf("colocation: distance must be finite and >= 0 (got %v)", c.Distance)
	}
	if math.IsNaN(c.MinPI) || c.MinPI <= 0 || c.MinPI > 1 {
		return fmt.Errorf("colocation: minPI must be in (0, 1] (got %v)", c.MinPI)
	}
	if c.MaxSize < 0 {
		return fmt.Errorf("colocation: maxSize must be >= 0 (got %d)", c.MaxSize)
	}
	if c.TopK < 0 {
		return fmt.Errorf("colocation: topK must be >= 0 (got %d)", c.TopK)
	}
	return nil
}

// Pattern is one prevalent co-location: a set of feature types, its
// participation index, and how many row instances (neighbor cliques)
// support it.
type Pattern struct {
	Types []string `json:"types"`
	// PI is the participation index: the minimum over the pattern's
	// types of the fraction of that type's instances participating in
	// at least one row instance.
	PI float64 `json:"participationIndex"`
	// Rows counts the pattern's row instances (cliques).
	Rows int `json:"rowInstances"`
}

// Result is a co-location mining run's output.
type Result struct {
	// Distance and MinPI echo the mined configuration.
	Distance float64
	MinPI    float64
	// Types are the feature types considered (those with at least one
	// instance), sorted.
	Types []string
	// Instances is the total instance count across Types.
	Instances int
	// CandidatePairs counts envelope-stage neighbor candidates from the
	// layer join's filter; RefinedPairs counts pairs surviving the exact
	// distance refinement (the materialized neighbor relation).
	CandidatePairs int64
	RefinedPairs   int64
	// Candidates counts candidate type sets (size >= 2) generated
	// during the walk, including those the star upper bound rules out
	// before their rows are materialized.
	Candidates int
	// StarPruned counts candidates discarded on the star-participation
	// upper bound without materializing any rows (diagnostic, not part
	// of the wire result).
	StarPruned int
	// Prevalent holds the patterns with PI >= MinPI, sorted by size
	// then lexicographically by type names. With TopK set, only the k
	// highest-PI patterns remain (still in size-then-name order).
	Prevalent []Pattern
	// Duration is the wall time of the whole run.
	Duration time.Duration
}

// Mine runs co-location mining over the dataset's layers.
func Mine(ds *dataset.Dataset, cfg Config) (*Result, error) {
	return MineContext(context.Background(), ds, cfg)
}

// MineContext is Mine with cancellation and tracing via the context.
func MineContext(ctx context.Context, ds *dataset.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ds == nil {
		return nil, errors.New("colocation: nil dataset")
	}
	tr := obs.FromContext(ctx)
	start := time.Now()

	types := gatherTypes(ds)
	res := &Result{
		Distance: cfg.Distance,
		MinPI:    cfg.MinPI,
		Types:    typeNames(types),
	}
	for _, t := range types {
		res.Instances += len(t.geoms)
	}

	sp := tr.Stage("colocate.neighbors")
	graph, nc, err := materializeNeighbors(ctx, types, cfg.Distance)
	sp.End()
	if err != nil {
		return nil, err
	}
	tr.Add("coloc.prepared", nc.prepared)
	tr.Add("coloc.pairs.candidates", nc.candidates)
	tr.Add("coloc.pairs.refined", nc.refined)
	tr.Add("coloc.neighbors.workers", int64(nc.workers))
	res.CandidatePairs = nc.candidates
	res.RefinedPairs = nc.refined

	sp = tr.Stage("colocate.walk")
	err = prevalenceWalk(ctx, tr, types, graph, cfg, res)
	sp.End()
	if err != nil {
		return nil, err
	}
	if cfg.TopK > 0 {
		res.Prevalent = selectTopK(res.Prevalent, cfg.TopK)
	}
	res.Duration = time.Since(start)
	return res, nil
}

// typeSet is one feature type's instances. Instances keep the layer's
// feature order; the index into geoms is the instance identity used by
// the CSR rows and row tables.
type typeSet struct {
	name  string
	geoms []geom.Geometry
}

// gatherTypes collects the dataset's layers — reference and relevant
// alike, since co-location has no reference/relevant asymmetry — into
// per-type instance sets, merging layers that share a type name,
// skipping nil geometries, and dropping types with no instances.
// Types come back sorted by name, the canonical order every candidate
// set and pattern uses.
func gatherTypes(ds *dataset.Dataset) []typeSet {
	layers := make([]*dataset.Layer, 0, 1+len(ds.Relevant))
	if ds.Reference != nil {
		layers = append(layers, ds.Reference)
	}
	layers = append(layers, ds.Relevant...)

	byName := map[string]int{}
	var types []typeSet
	for _, l := range layers {
		if l == nil {
			continue
		}
		i, ok := byName[l.Type]
		if !ok {
			i = len(types)
			byName[l.Type] = i
			types = append(types, typeSet{name: l.Type})
		}
		for _, f := range l.Features {
			if f.Geometry == nil {
				continue
			}
			types[i].geoms = append(types[i].geoms, f.Geometry)
		}
	}
	kept := types[:0]
	for _, t := range types {
		if len(t.geoms) > 0 {
			kept = append(kept, t)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].name < kept[j].name })
	return kept
}

func typeNames(types []typeSet) []string {
	names := make([]string, len(types))
	for i, t := range types {
		names[i] = t.name
	}
	return names
}

// csrPair holds one ordered type pair's neighbor lists in CSR form: the
// neighbors of type-i instance a among type-j instances are
// ids[offsets[a] : offsets[a+1]], sorted ascending. Two flat arrays per
// pair replace the per-instance slice headers (and their per-element
// append growth) of a nested layout.
type csrPair struct {
	offsets []int32
	ids     []int32
}

// row returns instance a's sorted neighbor list.
func (p *csrPair) row(a int32) []int32 { return p.ids[p.offsets[a]:p.offsets[a+1]] }

// degree returns instance a's neighbor count — the size of its star
// neighborhood toward the pair's second type.
func (p *csrPair) degree(a int32) int32 { return p.offsets[a+1] - p.offsets[a] }

// neighborGraph is the materialized neighbor relation: one csrPair per
// ordered type pair (i != j; same-type neighborhoods are never needed
// because a candidate set holds distinct types).
type neighborGraph struct {
	n     int
	pairs []csrPair
}

// at returns the CSR block of the ordered pair (i, j).
func (g *neighborGraph) at(i, j int) *csrPair { return &g.pairs[i*g.n+j] }

// transpose returns the reverse direction of the pair, whose second
// type has nj instances, by a counting transpose: rows come out sorted
// because the fill scans source instances in ascending order.
func (p *csrPair) transpose(nj int) csrPair {
	offsets := make([]int32, nj+1)
	for _, b := range p.ids {
		offsets[b+1]++
	}
	for b := 0; b < nj; b++ {
		offsets[b+1] += offsets[b]
	}
	ids := make([]int32, len(p.ids))
	fill := make([]int32, nj)
	for a := 0; a+1 < len(p.offsets); a++ {
		for _, b := range p.row(int32(a)) {
			ids[offsets[b]+fill[b]] = int32(a)
			fill[b]++
		}
	}
	return csrPair{offsets: offsets, ids: ids}
}

// neighborCounts are materializeNeighbors' counts: the instances it
// prepared, the join's candidate pairs, the pairs the refine kept, and
// the worker count of phase 2.
type neighborCounts struct {
	prepared, candidates, refined int64
	workers                       int
}

// materializeNeighbors builds the CSR neighbor graph for every ordered
// type pair. Phase 1 builds each type's index.Layer: straight from the
// point envelopes when every instance of every type is a geom.Point,
// else over the type's prepared geometries. Phase 2 makes each
// unordered type pair (i, j) one unit: one Layer.Join of the two layers
// is the filter stage, the exact decision Distance <= dist refines each
// candidate (Point.WithinDistance on points, Prepared.WithinDistance
// otherwise), the refined pairs fill the forward CSR and a counting
// transpose the reverse one. Both phases run on a par pool GOMAXPROCS
// wide, which stops between units once ctx is done; a unit writes only
// its own pair's slots, so the graph is identical at any worker count.
func materializeNeighbors(ctx context.Context, types []typeSet, dist float64) (*neighborGraph, neighborCounts, error) {
	n := len(types)
	graph := &neighborGraph{n: n, pairs: make([]csrPair, n*n)}
	var nc neighborCounts
	if n < 2 {
		return graph, nc, nil
	}

	// Phase 1: one join layer per type, type-sharded. A point's
	// envelope is its prepared envelope, so the join's candidates do not
	// depend on the side taken.
	pts := pointsOf(types)
	layers := make([]*index.Layer, n)
	if err := par.For(ctx, n, par.Workers(0, n), func(_, i int) {
		if pts != nil {
			p := pts[i]
			layers[i] = index.NewLayer(len(p), func(j int) geom.Envelope { return p[j].Envelope() }, nil, false)
		} else {
			layers[i] = index.NewLayer(len(types[i].geoms), nil, geom.PrepareAll(types[i].geoms), false)
		}
	}); err != nil {
		return nil, nc, err
	}
	if pts == nil {
		for _, t := range types {
			nc.prepared += int64(len(t.geoms))
		}
	}

	// Phase 2: one join, refine and CSR fill per unordered type pair.
	type typePair struct{ i, j int }
	var units []typePair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			units = append(units, typePair{i, j})
		}
	}
	candidates := make([]int64, len(units))
	refined := make([]int64, len(units))
	nc.workers = par.Workers(0, len(units))
	// With fewer type pairs than the pool is wide (one pair for two
	// types), each join takes the workers the units leave idle.
	joinWorkers := max(1, par.Workers(0, math.MaxInt)/len(units))
	if err := par.For(ctx, len(units), nc.workers, func(_, u int) {
		i, j := units[u].i, units[u].j
		pairs, err := layers[i].Join(ctx, layers[j], dist, joinWorkers, nil)
		if err != nil {
			return // par.For reports ctx's error
		}
		candidates[u] = int64(len(pairs))
		prepI, prepJ := layers[i].Prepared, layers[j].Prepared
		kept := pairs[:0]
		for _, p := range pairs {
			var near bool
			if pts != nil {
				near = pts[i][p.A].WithinDistance(pts[j][p.B], dist)
			} else {
				near = prepI[p.A].WithinDistance(prepJ[p.B], dist)
			}
			if near {
				kept = append(kept, p)
			}
		}
		refined[u] = int64(len(kept))
		// The pairs are sorted by (A, B): each instance's neighbors sit
		// together in ascending order, so the ids are the Bs in turn
		// and each CSR row comes out sorted, as the walk's list
		// intersections need.
		fwd := csrPair{offsets: make([]int32, len(types[i].geoms)+1), ids: make([]int32, len(kept))}
		for k, p := range kept {
			fwd.offsets[p.A+1]++
			fwd.ids[k] = int32(p.B)
		}
		for a := range len(types[i].geoms) {
			fwd.offsets[a+1] += fwd.offsets[a]
		}
		*graph.at(i, j) = fwd
		*graph.at(j, i) = fwd.transpose(len(types[j].geoms))
	}); err != nil {
		return nil, nc, err
	}
	for u := range units {
		nc.candidates += candidates[u]
		nc.refined += refined[u]
	}
	return graph, nc, nil
}

// pointsOf returns every type's instances as geom.Points, when every
// instance of every type is one (a MultiPoint is not), and nil
// otherwise. The point slices are windows of one array.
func pointsOf(types []typeSet) [][]geom.Point {
	total := 0
	for _, t := range types {
		for _, g := range t.geoms {
			if _, ok := g.(geom.Point); !ok {
				return nil
			}
		}
		total += len(t.geoms)
	}
	all := make([]geom.Point, 0, total)
	pts := make([][]geom.Point, len(types))
	for i, t := range types {
		start := len(all)
		for _, g := range t.geoms {
			all = append(all, g.(geom.Point))
		}
		pts[i] = all[start:len(all):len(all)]
	}
	return pts
}

// candidateSet is one candidate type set during the walk, with the row
// instances materialized for it. Rows are stored flat (row-major,
// stride len(types)) so a table of any size costs one allocation; rows
// are kept only while the next level still needs them for extension.
type candidateSet struct {
	types []int   // indices into the sorted type list, ascending
	rows  []int32 // flat row instances, stride len(types)
	nrows int
	pi    float64
}

// expander is one walk worker's pooled scratch: the intersection buffer
// and the per-position participation flags are reused across every
// candidate the worker expands, so steady-state expansion allocates
// only each candidate's flat row table.
type expander struct {
	buf  []int32
	part [][]bool
}

// parts returns participation flag slices sized for cand, reusing (and
// clearing) the pooled backing arrays.
func (e *expander) parts(cand []int, types []typeSet) [][]bool {
	for len(e.part) < len(cand) {
		e.part = append(e.part, nil)
	}
	for i, t := range cand {
		need := len(types[t].geoms)
		if cap(e.part[i]) < need {
			e.part[i] = make([]bool, need)
		} else {
			e.part[i] = e.part[i][:need]
			clear(e.part[i])
		}
	}
	return e.part[:len(cand)]
}

// prevalenceWalk is the level-wise participation-index walk. Level 1 is
// every type (each trivially prevalent, PI = 1); each next level joins
// prevalent sets sharing a (k-2)-prefix, prunes candidates with a
// non-prevalent subset (sound by PI anti-monotonicity), and evaluates
// each survivor first via the star participation upper bound,
// materializing rows only when the bound clears MinPI. Candidates shard
// across a par pool; results land in per-candidate slots and are merged
// in candidate order, so output is byte-identical at any worker count.
func prevalenceWalk(ctx context.Context, tr *obs.Trace, types []typeSet, g *neighborGraph, cfg Config, res *Result) error {
	if len(types) < 2 {
		return ctx.Err()
	}
	// Level 1: every type, with single-instance rows.
	level := make([]candidateSet, len(types))
	for i, t := range types {
		rows := make([]int32, len(t.geoms))
		for a := range rows {
			rows[a] = int32(a)
		}
		level[i] = candidateSet{types: []int{i}, rows: rows, nrows: len(rows), pi: 1}
	}
	rowsPeak := 0

	for k := 2; cfg.MaxSize == 0 || k <= cfg.MaxSize; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		candidates := aprioriGenTypes(level)
		if len(candidates) == 0 {
			break
		}
		res.Candidates += len(candidates)
		tr.Add("coloc.candidates", int64(len(candidates)))

		// The prefix parents the expansion extends from, keyed by the
		// candidate's first k-1 types.
		parents := make(map[string]*candidateSet, len(level))
		for i := range level {
			parents[typeKey(level[i].types)] = &level[i]
		}

		expanded := make([]candidateSet, len(candidates))
		workers := par.Workers(0, len(candidates))
		if k == 2 {
			tr.Add("coloc.workers", int64(workers))
		}
		scratch := make([]expander, workers)
		pruned := make([]int64, workers)
		done := make([]int64, workers)
		err := par.For(ctx, len(candidates), workers, func(w, i int) {
			cand := candidates[i]
			if starPI(cand, types, g, cfg.MinPI) < cfg.MinPI {
				// The star upper bound already rules the candidate
				// out: skip the instance join.
				expanded[i] = candidateSet{types: cand}
				pruned[w]++
			} else {
				// The workers' expanders share a cache line: work on a
				// local copy.
				e := scratch[w]
				expanded[i] = expandCandidate(&e, cand, parents, types, g)
				scratch[w] = e
			}
			done[w]++
		})
		for w, d := range done {
			tr.Add(obs.WorkerCounter("coloc", w, "candidates"), d)
		}
		if err != nil {
			return err
		}
		for _, p := range pruned {
			res.StarPruned += int(p)
		}

		// The expansion peak holds the parent tables plus every
		// candidate's table at once; record it, then drop the parents —
		// the next level extends only the new tables.
		liveRows := 0
		for i := range level {
			liveRows += len(level[i].rows)
		}
		for i := range expanded {
			liveRows += len(expanded[i].rows)
		}
		rowsPeak = max(rowsPeak, liveRows)
		for i := range level {
			level[i].rows = nil
		}

		// Merge in candidate order: deterministic regardless of which
		// worker expanded which slot.
		next := expanded[:0]
		for _, c := range expanded {
			if c.nrows > 0 && c.pi >= cfg.MinPI {
				next = append(next, c)
			}
		}
		for _, c := range next {
			res.Prevalent = append(res.Prevalent, Pattern{
				Types: namesOf(types, c.types),
				PI:    c.pi,
				Rows:  c.nrows,
			})
		}
		tr.Add("coloc.prevalent", int64(len(next)))
		if len(next) == 0 {
			break
		}
		level = next
	}
	tr.Add("coloc.star.pruned", int64(res.StarPruned))
	tr.Add("coloc.rows.peak", int64(rowsPeak))
	return nil
}

// starPI computes the star participation index of a candidate: for each
// member type, the fraction of its instances whose star neighborhood
// (its CSR row) is non-empty toward every other member type. Any
// instance participating in a clique row neighbors every other member,
// so starPI(c) >= PI(c) for every candidate — a sound coarse prune —
// and adding a type only shrinks each per-type star set, so the bound
// is anti-monotone like PI itself. Costs O(Σ|type| · k) integer
// subtractions against the CSR offsets; no instance join. Returns early
// once the bound falls below floor.
func starPI(cand []int, types []typeSet, g *neighborGraph, floor float64) float64 {
	pi := 1.0
	for i, ti := range cand {
		total := len(types[ti].geoms)
		cnt := 0
		for a := 0; a < total; a++ {
			// Even if every remaining instance qualified, the ratio
			// cannot reach floor anymore: abandon this type early.
			if float64(cnt+total-a)/float64(total) < floor {
				break
			}
			ok := true
			for j, tj := range cand {
				if j == i {
					continue
				}
				if g.at(ti, tj).degree(int32(a)) == 0 {
					ok = false
					break
				}
			}
			if ok {
				cnt++
			}
		}
		if r := float64(cnt) / float64(total); r < pi {
			pi = r
		}
		if pi < floor {
			return pi
		}
	}
	return pi
}

// aprioriGenTypes joins the prevalent sets of one level into the next
// level's candidates: pairs sharing their first k-1 elements produce a
// (k+1)-set, kept only when every k-subset is prevalent (PI is
// anti-monotone, so a missing subset proves the candidate cannot
// reach any MinPI its subsets missed). The input is lexicographically
// sorted and the blockwise join preserves that order.
func aprioriGenTypes(level []candidateSet) [][]int {
	prevalent := make(map[string]bool, len(level))
	for _, c := range level {
		prevalent[typeKey(c.types)] = true
	}
	k := len(level[0].types)
	var out [][]int
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			if !samePrefix(level[i].types, level[j].types, k-1) {
				break
			}
			cand := make([]int, k+1)
			copy(cand, level[i].types)
			cand[k] = level[j].types[k-1]
			if allSubsetsPrevalent(cand, prevalent) {
				out = append(out, cand)
			}
		}
	}
	return out
}

func samePrefix(a, b []int, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsPrevalent checks every (k-1)-subset of cand. The two
// subsets dropping the last elements are the join parents and known
// prevalent, but checking them costs little and keeps this obviously
// exhaustive.
func allSubsetsPrevalent(cand []int, prevalent map[string]bool) bool {
	sub := make([]int, 0, len(cand)-1)
	for drop := range cand {
		sub = sub[:0]
		for i, t := range cand {
			if i != drop {
				sub = append(sub, t)
			}
		}
		if !prevalent[typeKey(sub)] {
			return false
		}
	}
	return true
}

// expandCandidate materializes a candidate's row instances by extending
// its (k-1)-prefix parent's rows: an instance y of the new last type
// joins a row when y neighbors every row member, i.e. y lies in the
// intersection of the members' CSR rows toward the new type. Because
// parent rows are cliques, every extended row is a clique. Rows stream
// into one flat table preallocated from the parent's row count; the
// intersection scratch and participation flags come pooled from the
// worker's expander.
func expandCandidate(e *expander, cand []int, parents map[string]*candidateSet, types []typeSet, g *neighborGraph) candidateSet {
	k := len(cand)
	parent := parents[typeKey(cand[:k-1])]
	newType := cand[k-1]
	pk := k - 1 // parent row stride

	part := e.parts(cand, types)
	adjFirst := g.at(cand[0], newType)
	// Capacity hint: tables usually stay near the parent's row count
	// (each parent row extends to a handful of instances or dies).
	rows := make([]int32, 0, parent.nrows*k)
	nrows := 0
	for r := 0; r < parent.nrows; r++ {
		row := parent.rows[r*pk : r*pk+pk]
		ext := adjFirst.row(row[0])
		for m := 1; m < pk && len(ext) > 0; m++ {
			// Writing into e.buf while ext aliases it is safe: the
			// intersection only overwrites already-consumed positions.
			e.buf = intersectSorted(ext, g.at(cand[m], newType).row(row[m]), e.buf[:0])
			ext = e.buf
		}
		if len(ext) == 0 {
			continue
		}
		for _, y := range ext {
			rows = append(rows, row...)
			rows = append(rows, y)
			part[k-1][y] = true
		}
		nrows += len(ext)
		for m, x := range row {
			part[m][x] = true
		}
	}
	if nrows == 0 {
		return candidateSet{types: cand}
	}
	pi := 1.0
	for i, t := range cand {
		cnt := 0
		for _, p := range part[i] {
			if p {
				cnt++
			}
		}
		r := float64(cnt) / float64(len(types[t].geoms))
		if r < pi {
			pi = r
		}
	}
	return candidateSet{types: cand, rows: rows, nrows: nrows, pi: pi}
}

// intersectSorted writes the intersection of two ascending lists into
// dst and returns it.
func intersectSorted(a, b []int32, dst []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

func namesOf(types []typeSet, idx []int) []string {
	names := make([]string, len(idx))
	for i, t := range idx {
		names[i] = types[t].name
	}
	return names
}

// typeKey is the canonical map key of a type-index set.
func typeKey(ts []int) string {
	b := make([]byte, 0, len(ts)*3)
	for _, t := range ts {
		b = append(b, byte(t), byte(t>>8), byte(t>>16))
	}
	return string(b)
}
