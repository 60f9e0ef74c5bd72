// Incremental extraction: a State is the one extraction driver. It keeps
// everything a full extraction computes — fitted discretizers, each
// relevant layer's side of the spatial join (index.Layer: prepared
// geometries and candidate filter), and each reference row's items
// split into parts — so that a mutated successor dataset re-extracts only
// its dirty region instead of the whole scene. ExtractContext is a State
// build that returns the table and drops the state.
//
// The dirty-region math inverts the candidate filters: a changed
// relevant feature can only affect a reference row if the row's filters
// could let the feature's old or new envelope through. An index.Layer
// over the reference envelopes answers that reverse query with the
// filter the forward gather uses (everything for directional/disjoint/
// farFrom families, Within CloseMax for distance, Touching for pure
// topology), so every row whose items can change is re-extracted.
// Prepared geometries of untouched features — both relevant-layer
// features and the reference geometries of partially re-extracted rows
// — are reused, never rebuilt.
package transact

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/qsr"
)

// State is a reusable extraction context bound to one dataset and one
// Options value. Build it with NewStateContext (a full extraction),
// read the result with Table, and advance it to a mutated successor
// dataset with Apply. A State is not safe for concurrent mutation;
// callers serialise Apply against Table.
type State struct {
	d    *dataset.Dataset
	opts Options
	disc Discretizer
	cuts map[string]*FittedDiscretizer

	anyFamily bool
	// layers[li] is relevant layer li's side of the spatial join: its
	// prepared geometries (nil when prepared geometries are disabled)
	// and its candidate filter. nil when no relation family is on.
	layers []*index.Layer
	// refLayer answers the reverse dirty-row query: which reference
	// rows can a changed envelope affect. It is built by the first
	// Apply that needs it and dropped when the reference layer changes,
	// so a one-shot extraction never pays for it.
	refLayer *index.Layer
	// prepRef[j] is row j's prepared reference geometry (nil entries
	// when unprepared).
	prepRef []*geom.Prepared

	// voc numbers every item the rows hold; see vocab.
	voc *vocab
	// pred[li] is layer li's predicate table at type granularity (nil
	// at instance granularity); see predicateItems.
	pred [][]int32
	// isA is the is_a item when Options.IncludeIsA is set.
	isA int32
	// numeric holds the label items of the fitted numeric attributes
	// under cuts.
	numeric map[string]numericAttr

	// rows[j] holds reference row j's items.
	rows []row
}

// row is one transaction's items as vocabulary indices in a single
// slice: the non-spatial part (is_a + attributes), then each relevant
// layer's spatial part in layer order, then the normalised row (the
// parts' distinct items in rank order, the order Table renders).
// ends[k] closes part k (0 is the attribute part, 1+li is layer li), so
// the normalised row starts at the last end. A row's items are never
// written after it is built; Apply splices a fresh slice for every row
// it re-renders, so predecessor rows stay intact for the delta's Old
// items.
type row struct {
	items []int32
	ends  []int
}

// part returns part k of the row.
func (r *row) part(k int) []int32 {
	start := 0
	if k > 0 {
		start = r.ends[k-1]
	}
	return r.items[start:r.ends[k]]
}

// norm returns the normalised row.
func (r *row) norm() []int32 {
	return r.items[r.ends[len(r.ends)-1]:]
}

// RowChange records one row whose normalised items differ between a
// State and its patched successor. Old is nil for inserted rows; New is
// nil for deleted rows (whose Row is the predecessor index).
type RowChange struct {
	Row      int
	Old, New []string
}

// TableDelta describes how Apply changed the transaction table, in
// exactly the shape the incremental miner consumes.
type TableDelta struct {
	// NewFromOld maps every successor row index to its predecessor row
	// index (-1 for inserted rows).
	NewFromOld []int
	// Changed lists surviving rows whose normalised items differ
	// (successor indexing), including inserted rows.
	Changed []RowChange
	// Deleted lists removed rows (predecessor indexing, New == nil).
	Deleted []RowChange
	// RowsTotal / RowsDirty / RowsReused count the successor rows, the
	// rows whose spatial parts were re-extracted, and the rows carried
	// over untouched.
	RowsTotal, RowsDirty, RowsReused int
	// PreparedReused / PreparedBuilt count prepared geometries carried
	// over versus newly built during the patch.
	PreparedReused, PreparedBuilt int
}

// Identity reports whether the delta changes no row.
func (td *TableDelta) Identity() bool {
	return len(td.Changed) == 0 && len(td.Deleted) == 0
}

// NewState builds extraction state with a full extraction; see
// NewStateContext.
func NewState(d *dataset.Dataset, opts Options) (*State, error) {
	return NewStateContext(context.Background(), d, opts)
}

// NewStateContext performs a full extraction of d under opts, keeping
// every intermediate the delta path reuses, and reports the extract.*
// counters to any obs.Trace attached to ctx. Layer preparation, the
// per-layer index builds and then the reference rows fan out over a
// par pool of Options.Parallelism workers; cancellation is checked
// before each chunk, layer and row. Distance thresholds are validated
// first (qsr.DistanceThresholds.Validate).
func NewStateContext(ctx context.Context, d *dataset.Dataset, opts Options) (*State, error) {
	if d.Reference == nil {
		return nil, fmt.Errorf("transact: dataset has no reference layer")
	}
	if opts.IsZero() {
		return nil, fmt.Errorf("transact: zero Options (enable a relation family, or configure attributes-only extraction explicitly)")
	}
	if opts.Distance {
		if err := opts.Thresholds.Validate(); err != nil {
			return nil, fmt.Errorf("transact: %w", err)
		}
	}
	if opts.Index != RTreeIndex && opts.Index != NoIndex {
		return nil, fmt.Errorf("transact: unknown index kind %d", opts.Index)
	}
	disc := opts.Discretizer
	if disc == nil {
		disc = DefaultDiscretizer()
	}
	cuts, err := fitNumericAttrs(d, disc)
	if err != nil {
		return nil, err
	}
	s := &State{
		d:         d,
		opts:      opts,
		disc:      disc,
		cuts:      cuts,
		anyFamily: opts.Topological || opts.Distance || opts.Directional,
		voc:       new(vocab),
	}
	tr := obs.FromContext(ctx)

	n := d.Reference.Len()
	s.prepRef = make([]*geom.Prepared, n)
	if opts.IncludeIsA {
		s.isA = s.voc.internAll("is_a_" + d.Reference.Type)[0]
	}
	if s.anyFamily && opts.Granularity == TypeLevel {
		s.pred = predicateItems(s.voc, d.Relevant)
	}
	s.numeric = labelItems(s.voc, cuts)
	// Prepare every relevant layer and the reference layer once up
	// front: every reference row reuses the same immutable
	// geom.Prepared values, read-only across the worker pool, and the
	// join layers below take their envelopes for free.
	prepared := s.anyFamily && !opts.NoPrepare
	prep := make([][]*geom.Prepared, len(d.Relevant))
	var prepStats extractStats
	if prepared {
		sp := tr.Stage("extract.prepare")
		prepStats, err = s.prepareLayers(ctx, d, prep)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	if s.anyFamily {
		nl := len(d.Relevant)
		s.layers = make([]*index.Layer, nl)
		if err := par.For(ctx, nl, par.Workers(opts.Parallelism, nl), func(_, i int) {
			s.layers[i] = index.NewLayer(d.Relevant[i].Len(), featureEnvelope(d.Relevant[i]), prep[i], opts.Index == NoIndex)
		}); err != nil {
			return nil, err
		}
	}

	stride := 1 + len(d.Relevant)
	ends := make([]int, n*stride)
	s.rows = make([]row, n)
	workers := par.Workers(opts.Parallelism, n)
	bufs := make([]rowBuf, workers)
	stats := make([]extractStats, workers)
	pass := s.newRowPass(d, s.numeric)
	err = par.For(ctx, n, workers, func(w, j int) {
		r := &s.rows[j]
		r.ends = ends[j*stride : (j+1)*stride : (j+1)*stride]
		// The workers' slots share a cache line, so the row works on
		// local copies and writes them back once.
		buf, st := bufs[w], extractStats{}
		r.items = s.renderRow(pass, j, s.prepRef[j], nil, false, nil, r.ends, &buf, &st)
		st.items = int64(len(r.items))
		bufs[w] = buf
		stats[w].add(st)
	})
	if err == nil {
		err = s.normaliseRows(ctx, pass, n, func(j int) *row { return &s.rows[j] })
	}
	if err != nil {
		return nil, err
	}
	var total extractStats
	for _, st := range stats {
		total.add(st)
	}
	tr.Add("extract.rows", int64(n))
	tr.Add("extract.candidates", total.candidates)
	tr.Add("extract.items", total.items)
	tr.Add("extract.relates", total.relates)
	tr.Add("extract.refine.skipped", total.skipped)
	if prepared {
		tr.Add("extract.prepared.builds", prepStats.preparedBuilds)
		tr.Add("extract.prepared.edges", prepStats.preparedEdges)
	}
	return s, nil
}

// prepareLayers prepares every relevant layer li into prep[li] and the
// reference layer into s.prepRef on a par pool of Options.Parallelism
// workers. Each layer is cut into one contiguous chunk per worker, and
// each chunk is one geom.PrepareAll, so its geometries share one arena.
// The returned stats count the geometries prepared and their edges.
func (s *State) prepareLayers(ctx context.Context, d *dataset.Dataset, prep [][]*geom.Prepared) (extractStats, error) {
	for li, l := range d.Relevant {
		prep[li] = make([]*geom.Prepared, l.Len())
	}
	layers := append(slices.Clip(d.Relevant), d.Reference)
	out := append(slices.Clip(prep), s.prepRef)
	type chunk struct{ layer, lo, hi int }
	var chunks []chunk
	for li, l := range layers {
		workers := par.Workers(s.opts.Parallelism, l.Len())
		per := (l.Len() + workers - 1) / workers
		for lo := 0; lo < l.Len(); lo += per {
			chunks = append(chunks, chunk{li, lo, min(lo+per, l.Len())})
		}
	}
	stats := make([]extractStats, par.Workers(s.opts.Parallelism, len(chunks)))
	err := par.For(ctx, len(chunks), len(stats), func(w, i int) {
		c := chunks[i]
		feats := layers[c.layer].Features[c.lo:c.hi]
		gs := make([]geom.Geometry, len(feats))
		for k := range feats {
			gs[k] = feats[k].Geometry
		}
		prepared := geom.PrepareAll(gs)
		copy(out[c.layer][c.lo:c.hi], prepared)
		stats[w].preparedBuilds += int64(len(prepared))
		for _, pg := range prepared {
			stats[w].preparedEdges += int64(pg.NumEdges())
		}
	})
	var total extractStats
	for _, st := range stats {
		total.add(st)
	}
	return total, err
}

// Table renders the current transaction table: each row's normalised
// items (sorted by byte order, deduplicated) as strings. The rows are
// normalised when rendered, so Table only looks names up; all rows'
// items share one backing array, each row a capacity-capped window.
func (s *State) Table() *dataset.Table {
	total := 0
	for j := range s.rows {
		total += len(s.rows[j].norm())
	}
	items := make([]string, total)
	t := &dataset.Table{Transactions: make([]dataset.Transaction, len(s.rows))}
	off := 0
	for j := range s.rows {
		norm := s.rows[j].norm()
		tx := items[off : off+len(norm) : off+len(norm)]
		for k, i := range norm {
			tx[k] = s.voc.names[i]
		}
		off += len(norm)
		t.Transactions[j] = dataset.Transaction{RefID: s.d.Reference.Features[j].ID, Items: tx}
	}
	return t
}

// Rows returns the current table as vocabulary indices: names is the
// vocabulary and rows[j] lists the items of Table's row j as indices
// into it, in the same order. Both share the state's storage: callers
// must not modify them, and they describe the state until its next
// Apply.
func (s *State) Rows() (names []string, rows [][]int32) {
	rows = make([][]int32, len(s.rows))
	for j := range s.rows {
		rows[j] = s.rows[j].norm()
	}
	return s.voc.names, rows
}

// normaliseRows interns the names of the pending codes that the n rows
// pass rendered hold, then replaces each row's codes by indices and
// appends its normalised items to its parts; rendered(i) is the i-th
// row. The codes held are listed once each, in ascending order, and the
// list is cut into runs of at least minRun codes, one per worker at
// most: the workers render and sort their runs' names, which are
// interned run by run, and then normalise the rows, on a par pool of
// Options.Parallelism workers.
func (s *State) normaliseRows(ctx context.Context, pass *rowPass, n int, rendered func(i int) *row) error {
	held := newHeldCodes(pass.codes)
	for i := 0; i < n; i++ {
		for _, item := range rendered(i).items {
			if item < 0 {
				held.add(-1 - item)
			}
		}
	}
	codes := held.list()
	runs := make([][]term, par.Workers(s.opts.Parallelism, (len(codes)+minRun-1)/minRun))
	per := (len(codes) + len(runs) - 1) / len(runs)
	err := par.For(ctx, len(runs), len(runs), func(_, k int) {
		lo, hi := min(k*per, len(codes)), min((k+1)*per, len(codes))
		run := make([]term, 0, hi-lo)
		for slot := lo; slot < hi; slot++ {
			run = append(run, term{pass.name(int(codes[slot])), int32(slot)})
		}
		slices.SortFunc(run, byName)
		runs[k] = run
	})
	if err != nil {
		return err
	}
	for _, run := range runs {
		s.voc.intern(run, held.index)
	}
	s.voc.rerank()
	return par.For(ctx, n, par.Workers(s.opts.Parallelism, n), func(_, i int) {
		r := rendered(i)
		r.items = s.voc.normalise(r.items, held)
	})
}

// Apply advances the state to the mutated successor dataset nd, whose
// difference from the current dataset is described by cs (both from
// dataset.ApplyOps). Only the dirty region re-extracts:
//
//   - a changed relevant feature re-extracts exactly the (row, layer)
//     pairs whose candidate gather can see its old or new envelope;
//   - a changed reference feature re-extracts its own row fully;
//   - a feature deleted and re-inserted under the same ID in one batch
//     (reported as deleted + inserted) counts as changed: its row, or
//     its prepared geometry, is rebuilt, never carried over by ID;
//   - a discretizer cut change re-renders every row's attribute items
//     (no geometry work);
//   - everything else — item parts, prepared geometries, indexes of
//     untouched layers — is carried over.
//
// Rows and prepared geometries carry over by feature ID, so Apply fails,
// leaving the state as it was, when the current dataset repeats an ID in
// its reference layer or in a layer cs changes; callers fall back to a
// cold extraction.
//
// The returned TableDelta is the exact row-level difference of the
// transaction tables, ready for mining.PatchResultContext. Counters
// delta.rows.total/dirty/reused and delta.prepared.reused/builds report
// the reuse to any obs.Trace.
func (s *State) Apply(ctx context.Context, nd *dataset.Dataset, cs *dataset.ChangeSet) (*TableDelta, error) {
	if nd.Reference == nil || nd.Reference.Type != s.d.Reference.Type {
		return nil, fmt.Errorf("transact: delta: reference layer mismatch")
	}
	if len(nd.Relevant) != len(s.d.Relevant) {
		return nil, fmt.Errorf("transact: delta: relevant layer count changed")
	}
	for i := range nd.Relevant {
		if nd.Relevant[i].Type != s.d.Relevant[i].Type {
			return nil, fmt.Errorf("transact: delta: relevant layer %d type changed", i)
		}
	}
	tr := obs.FromContext(ctx)

	newCuts, err := fitNumericAttrs(nd, s.disc)
	if err != nil {
		return nil, err
	}
	attrsChanged := !cutsEqual(newCuts, s.cuts)
	newNumeric := s.numeric
	if attrsChanged {
		newNumeric = labelItems(s.voc, newCuts)
	}

	// Rows, prepared geometries and dirty envelopes are matched by feature
	// ID, which needs unique IDs in the predecessor's reference layer and
	// in every changed relevant layer (ApplyOps never creates a repeat).
	// Check them all before touching any state.
	oldRef := s.d.Reference
	oldByID, err := featureIndex(oldRef)
	if err != nil {
		return nil, err
	}
	oldIdxs := make([]map[string]int, len(nd.Relevant))
	for li := range nd.Relevant {
		if s.anyFamily && !cs.Layer(nd.Relevant[li].Type).Empty() {
			if oldIdxs[li], err = featureIndex(s.d.Relevant[li]); err != nil {
				return nil, err
			}
		}
	}

	// Map successor reference rows onto predecessor rows by feature ID.
	refDiff := cs.Layer(oldRef.Type)
	var refChanged map[string]bool
	if refDiff != nil {
		refChanged = stringSet(refDiff.Updated, refDiff.Inserted)
	}
	n := nd.Reference.Len()
	newFromOld := make([]int, n)
	oldToNew := make([]int, oldRef.Len())
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	fullRow := make([]bool, n)
	for j := range nd.Reference.Features {
		id := nd.Reference.Features[j].ID
		old, ok := oldByID[id]
		if !ok {
			newFromOld[j] = -1
			fullRow[j] = true
			continue
		}
		newFromOld[j] = old
		oldToNew[old] = j
		fullRow[j] = refChanged[id]
	}

	// Advance changed relevant layers (prepared geometries + filter) and
	// mark the rows their dirty envelopes can reach.
	var preparedReused, preparedBuilt int64
	layerDirty := make([][]bool, len(nd.Relevant))
	allDirty := s.opts.Directional || s.opts.IncludeDisjoint || (s.opts.Distance && s.opts.IncludeFarFrom)
	var queryBuf []int
	for li := range nd.Relevant {
		ld := cs.Layer(nd.Relevant[li].Type)
		if !s.anyFamily || ld.Empty() {
			continue
		}
		oldLayer, newLayer, oldIdx := s.d.Relevant[li], nd.Relevant[li], oldIdxs[li]
		changed := stringSet(ld.Updated, ld.Inserted)
		var newPrep []*geom.Prepared
		if oldPrep := s.layers[li].Prepared; oldPrep != nil {
			newPrep = make([]*geom.Prepared, newLayer.Len())
			for j := range newLayer.Features {
				id := newLayer.Features[j].ID
				if oi, ok := oldIdx[id]; ok && !changed[id] {
					newPrep[j] = oldPrep[oi]
					preparedReused++
				} else {
					newPrep[j] = geom.Prepare(newLayer.Features[j].Geometry)
					preparedBuilt++
				}
			}
		}
		s.layers[li] = index.NewLayer(newLayer.Len(), featureEnvelope(newLayer), newPrep, s.opts.Index == NoIndex)

		dirty := make([]bool, n)
		layerDirty[li] = dirty
		if allDirty {
			for j := range dirty {
				dirty[j] = true
			}
			continue
		}
		if s.refLayer == nil {
			// Always an R-tree, whatever Options.Index says: it only
			// finds dirty rows and never affects extraction output.
			s.refLayer = index.NewLayer(oldRef.Len(), featureEnvelope(oldRef), nil, false)
		}
		// The reverse of gatherCandidates and the farFrom filter, whose
		// take-everything families were handled above.
		mark := func(env geom.Envelope) {
			if s.opts.Distance {
				queryBuf = s.refLayer.Within(env, s.opts.Thresholds.CloseMax, queryBuf)
			} else {
				queryBuf = s.refLayer.Touching(env, queryBuf)
			}
			for _, oldRow := range queryBuf {
				if nj := oldToNew[oldRow]; nj >= 0 {
					dirty[nj] = true
				}
			}
		}
		// Old envelopes of updated and deleted features, new envelopes
		// of updated and inserted ones.
		for _, ids := range [][]string{ld.Updated, ld.Deleted} {
			for _, id := range ids {
				if oi, ok := oldIdx[id]; ok {
					mark(oldLayer.Features[oi].Geometry.Envelope())
				}
			}
		}
		for j := range newLayer.Features {
			if changed[newLayer.Features[j].ID] {
				mark(newLayer.Features[j].Geometry.Envelope())
			}
		}
	}
	rowDirty := func(j int) bool {
		for _, dirty := range layerDirty {
			if dirty != nil && dirty[j] {
				return true
			}
		}
		return false
	}

	// Carry untouched rows over and collect the rows to re-render: full
	// rows, rows with dirty layers, and (on a refit) attribute-only rows.
	stride := 1 + len(nd.Relevant)
	ends := make([]int, n*stride)
	newRows := make([]row, n)
	newPrepRef := make([]*geom.Prepared, n)
	var jobs []int
	dirtyRows := 0
	for j := 0; j < n; j++ {
		newRows[j].ends = ends[j*stride : (j+1)*stride : (j+1)*stride]
		if fullRow[j] {
			jobs = append(jobs, j)
			dirtyRows++
			continue
		}
		old := newFromOld[j]
		copy(newRows[j].ends, s.rows[old].ends)
		newRows[j].items = s.rows[old].items
		newPrepRef[j] = s.prepRef[old]
		if rowDirty(j) {
			jobs = append(jobs, j)
			dirtyRows++
		} else if attrsChanged {
			jobs = append(jobs, j)
		}
	}

	workers := par.Workers(s.opts.Parallelism, len(jobs))
	bufs := make([]rowBuf, workers)
	stats := make([]extractStats, workers)
	pass := s.newRowPass(nd, newNumeric)
	err = par.For(ctx, len(jobs), workers, func(w, i int) {
		j := jobs[i]
		var old *row
		if fullRow[j] {
			newPrepRef[j] = s.prepareRef(nd, j)
			if newPrepRef[j] != nil {
				stats[w].preparedBuilds++
			}
		} else {
			old = &s.rows[newFromOld[j]]
			if newPrepRef[j] != nil && rowDirty(j) {
				stats[w].preparedReused++
			}
		}
		r := &newRows[j]
		r.items = s.renderRow(pass, j, newPrepRef[j], old, attrsChanged, layerDirty, r.ends, &bufs[w], &stats[w])
	})
	if err == nil {
		err = s.normaliseRows(ctx, pass, len(jobs), func(i int) *row { return &newRows[jobs[i]] })
	}
	if err != nil {
		return nil, err
	}
	var total extractStats
	for _, st := range stats {
		total.add(st)
	}

	// Diff the re-rendered rows (normalised) to produce the exact mining
	// delta, rendering strings only for rows that differ; carried-over
	// rows are equal by construction and are not compared. Indices are
	// stable across Apply, so equal index rows are equal string rows.
	delta := &TableDelta{
		NewFromOld:     newFromOld,
		RowsTotal:      n,
		RowsDirty:      dirtyRows,
		RowsReused:     n - dirtyRows,
		PreparedReused: int(preparedReused + total.preparedReused),
		PreparedBuilt:  int(preparedBuilt + total.preparedBuilds),
	}
	for _, j := range jobs {
		newItems := newRows[j].norm()
		old := newFromOld[j]
		if old < 0 {
			delta.Changed = append(delta.Changed, RowChange{Row: j, New: s.voc.render(newItems)})
			continue
		}
		if oldItems := s.rows[old].norm(); !slices.Equal(oldItems, newItems) {
			delta.Changed = append(delta.Changed, RowChange{Row: j, Old: s.voc.render(oldItems), New: s.voc.render(newItems)})
		}
	}
	for old := range oldToNew {
		if oldToNew[old] < 0 {
			delta.Deleted = append(delta.Deleted, RowChange{Row: old, Old: s.voc.render(s.rows[old].norm())})
		}
	}

	// Commit the successor state.
	s.d = nd
	s.cuts = newCuts
	s.numeric = newNumeric
	s.rows = newRows
	s.prepRef = newPrepRef
	if !refDiff.Empty() {
		s.refLayer = nil
	}

	tr.Add("delta.rows.total", int64(delta.RowsTotal))
	tr.Add("delta.rows.dirty", int64(delta.RowsDirty))
	tr.Add("delta.rows.reused", int64(delta.RowsReused))
	tr.Add("delta.prepared.reused", int64(delta.PreparedReused))
	tr.Add("delta.prepared.builds", int64(delta.PreparedBuilt))
	if attrsChanged {
		tr.Add("delta.attr.refits", 1)
	}
	return delta, nil
}

// rowBuf is one worker's scratch for rendering rows: the candidate
// gather and the row's parts, which renderRow copies out once.
type rowBuf struct {
	candidates []int
	items      []int32
}

// minRun is the fewest pending codes normaliseRows gives a run of its
// own. Interning a run is a merge with the whole vocabulary, so the few
// new names of an Apply are one run.
const minRun = 1024

// rowPass is one pass that renders rows of dataset d under the fitted
// numeric attributes numeric. It numbers the items whose names the
// vocabulary may not hold before the pass: at instance granularity the
// predicate of each relation against each relevant feature, from
// layer[li] + ci*numRelations + rel for feature ci of layer li, and the
// non-numeric attributes of each reference row, from attr +
// j*len(NonSpatialAttrs) + k for attribute k of row j. A rendered row
// holds such an item as a pending code, pendingItem(code), because the
// pass's workers never write the vocabulary; normaliseRows renders the
// name of each code the rows hold once and interns it.
type rowPass struct {
	d       *dataset.Dataset
	numeric map[string]numericAttr
	layer   []int
	attr    int
	codes   int
}

// newRowPass numbers the pending codes of a pass over d.
func (s *State) newRowPass(d *dataset.Dataset, numeric map[string]numericAttr) *rowPass {
	p := &rowPass{d: d, numeric: numeric}
	if s.anyFamily && s.opts.Granularity == InstanceLevel {
		p.layer = make([]int, len(d.Relevant))
		for li, l := range d.Relevant {
			p.layer[li] = p.attr
			p.attr += l.Len() * numRelations
		}
	}
	p.codes = p.attr + d.Reference.Len()*len(d.NonSpatialAttrs)
	return p
}

// pendingItem is the row item of pending code c.
func pendingItem(c int) int32 {
	return int32(-1 - c)
}

// name renders the name of pending code c.
func (p *rowPass) name(c int) string {
	if c < p.attr {
		// The last layer whose codes start at or before c: an empty
		// layer shares its start with the next.
		li := sort.Search(len(p.layer), func(li int) bool { return p.layer[li] > c }) - 1
		c -= p.layer[li]
		feat := &p.d.Relevant[li].Features[c/numRelations]
		return qsr.Predicate{Relation: qsr.Relation(c % numRelations), FeatureType: feat.ID}.String()
	}
	c -= p.attr
	attrs := p.d.NonSpatialAttrs
	name := attrs[c%len(attrs)]
	val, _ := p.d.Reference.Features[c/len(attrs)].Attr(name)
	return attrItemName(name, val)
}

// renderRow builds row j of pass's dataset into a fresh item slice
// under the pass's fitted numeric attributes, writing its part ends into
// ends. With old == nil every part is computed. Otherwise old is the
// row's predecessor: the attribute part is re-rendered only when
// redoAttr, and layer li's part is re-extracted only when
// layerDirty[li][j], every other part being copied from old. pref is
// the row's prepared reference geometry (nil when unprepared). The
// attributes come with the pass, not from s.numeric: Apply renders rows
// under the successor's refit before committing it. The slice holds the
// parts only, with room for the normalised row that normaliseRows
// appends.
func (s *State) renderRow(pass *rowPass, j int, pref *geom.Prepared, old *row, redoAttr bool, layerDirty [][]bool, ends []int, buf *rowBuf, st *extractStats) []int32 {
	d := pass.d
	ref := &d.Reference.Features[j]
	items := buf.items[:0]
	if old == nil || redoAttr {
		if s.opts.IncludeIsA {
			items = append(items, s.isA)
		}
		items = appendAttrItems(items, ref, d.NonSpatialAttrs, pass.numeric, pass.attr+j*len(d.NonSpatialAttrs))
	} else {
		items = append(items, old.part(0)...)
	}
	ends[0] = len(items)
	if s.anyFamily {
		refEnv := ref.Geometry.Envelope()
		if pref != nil {
			refEnv = pref.Envelope()
		}
		for li, l := range s.layers {
			if old == nil || (layerDirty[li] != nil && layerDirty[li][j]) {
				buf.candidates = gatherCandidates(l, refEnv, s.opts, buf.candidates)
				st.candidates += int64(len(buf.candidates))
				items = appendSpatialItems(items, ref, pref, d.Relevant[li], l.Prepared, s.layerPred(li), pass.layerCode(li), refEnv, buf.candidates, s.opts, st)
			} else {
				items = append(items, old.part(1+li)...)
			}
			ends[1+li] = len(items)
		}
	} else {
		for li := range d.Relevant {
			ends[1+li] = len(items)
		}
	}
	buf.items = items
	out := make([]int32, len(items), 2*len(items))
	copy(out, items)
	return out
}

// prepareRef prepares row j's reference geometry for the refine stage;
// nil when prepared geometries are off.
func (s *State) prepareRef(d *dataset.Dataset, j int) *geom.Prepared {
	if !s.anyFamily || s.opts.NoPrepare {
		return nil
	}
	return geom.Prepare(d.Reference.Features[j].Geometry)
}

// layerPred returns the predicate table of layer li, nil at instance
// granularity.
func (s *State) layerPred(li int) []int32 {
	if s.pred == nil {
		return nil
	}
	return s.pred[li]
}

// layerCode returns the first pending code of layer li's instance
// predicates, 0 at type granularity, where there are none.
func (p *rowPass) layerCode(li int) int {
	if p.layer == nil {
		return 0
	}
	return p.layer[li]
}

// featureEnvelope returns the envelope of layer l's feature j, the
// raw-geometry envelope source of index.NewLayer.
func featureEnvelope(l *dataset.Layer) func(j int) geom.Envelope {
	return func(j int) geom.Envelope { return l.Features[j].Geometry.Envelope() }
}

// featureIndex maps each feature ID of a layer to its position. A
// repeated ID is an error: it would alias two features.
func featureIndex(l *dataset.Layer) (map[string]int, error) {
	m := make(map[string]int, l.Len())
	for i := range l.Features {
		id := l.Features[i].ID
		if _, dup := m[id]; dup {
			return nil, fmt.Errorf("transact: delta: layer %q repeats feature ID %q", l.Type, id)
		}
		m[id] = i
	}
	return m, nil
}

// cutsEqual compares two fitted discretizer maps field-wise.
func cutsEqual(a, b map[string]*FittedDiscretizer) bool {
	if len(a) != len(b) {
		return false
	}
	for k, fa := range a {
		fb, ok := b[k]
		if !ok || !reflect.DeepEqual(fa, fb) {
			return false
		}
	}
	return true
}

// stringSet builds a membership set over the given lists.
func stringSet(lists ...[]string) map[string]bool {
	set := make(map[string]bool)
	for _, ss := range lists {
		for _, s := range ss {
			set[s] = true
		}
	}
	return set
}
