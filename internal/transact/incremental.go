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

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/par"
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
	// names[li] is layer li's predicate table at type granularity (nil
	// at instance granularity); see predicateNames.
	names [][]string

	// rows[j] holds reference row j's items before normalisation.
	rows []row
}

// row is one transaction's items in a single slice: the non-spatial
// part (is_a + attributes), then each relevant layer's spatial part in
// layer order. ends[k] closes part k (0 is the attribute part, 1+li is
// layer li). A row's items are never written after it is built; Apply
// splices a fresh slice for every row it re-renders, so predecessor rows
// stay intact for the delta's Old items.
type row struct {
	items []string
	ends  []int
}

// part returns part k of the row.
func (r *row) part(k int) []string {
	start := 0
	if k > 0 {
		start = r.ends[k-1]
	}
	return r.items[start:r.ends[k]]
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
	}
	tr := obs.FromContext(ctx)

	n := d.Reference.Len()
	s.prepRef = make([]*geom.Prepared, n)
	if s.anyFamily && opts.Granularity == TypeLevel {
		s.names = predicateNames(d.Relevant)
	}
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
	bufs := make([][]int, workers)
	stats := make([]extractStats, workers)
	err = par.For(ctx, n, workers, func(w, j int) {
		r := &s.rows[j]
		r.ends = ends[j*stride : (j+1)*stride : (j+1)*stride]
		// The workers' slots share a cache line, so the row works on
		// local copies and writes them back once.
		buf, st := bufs[w], extractStats{}
		r.items = s.renderRow(d, s.cuts, j, s.prepRef[j], nil, false, nil, r.ends, &buf, &st)
		st.items = int64(len(r.items))
		bufs[w] = buf
		stats[w].add(st)
	})
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

// Dataset returns the dataset the state currently reflects.
func (s *State) Dataset() *dataset.Dataset { return s.d }

// Options returns the extraction options the state was built with.
func (s *State) Options() Options { return s.opts }

// Table assembles the current transaction table. Each row's items are
// normalised (sorted, deduplicated) into a fresh slice, which makes the
// result independent of part boundaries; rows normalise on a par pool
// of Options.Parallelism workers.
func (s *State) Table() *dataset.Table {
	n := len(s.rows)
	t := &dataset.Table{Transactions: make([]dataset.Transaction, n)}
	// context.TODO never cancels, so For always runs every row.
	_ = par.For(context.TODO(), n, par.Workers(s.opts.Parallelism, n), func(_, j int) {
		t.Transactions[j] = dataset.Transaction{RefID: s.d.Reference.Features[j].ID, Items: dataset.NormalizeItems(s.rows[j].items)}
	})
	return t
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
// transaction tables, ready for itemset.DB.ApplyDelta and
// mining.PatchResultContext. Counters delta.rows.total/dirty/reused and
// delta.prepared.reused/builds report the reuse to any obs.Trace.
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
	bufs := make([][]int, workers)
	stats := make([]extractStats, workers)
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
		r.items = s.renderRow(nd, newCuts, j, newPrepRef[j], old, attrsChanged, layerDirty, r.ends, &bufs[w], &stats[w])
	})
	if err != nil {
		return nil, err
	}
	var total extractStats
	for _, st := range stats {
		total.add(st)
	}

	// Diff the re-rendered rows (normalised) to produce the exact mining
	// delta; carried-over rows are equal by construction and are not
	// compared.
	delta := &TableDelta{
		NewFromOld:     newFromOld,
		RowsTotal:      n,
		RowsDirty:      dirtyRows,
		RowsReused:     n - dirtyRows,
		PreparedReused: int(preparedReused + total.preparedReused),
		PreparedBuilt:  int(preparedBuilt + total.preparedBuilds),
	}
	for _, j := range jobs {
		newItems := dataset.NormalizeItems(newRows[j].items)
		old := newFromOld[j]
		if old < 0 {
			delta.Changed = append(delta.Changed, RowChange{Row: j, New: newItems})
			continue
		}
		oldItems := dataset.NormalizeItems(s.rows[old].items)
		if !slices.Equal(oldItems, newItems) {
			delta.Changed = append(delta.Changed, RowChange{Row: j, Old: oldItems, New: newItems})
		}
	}
	for old := range oldToNew {
		if oldToNew[old] < 0 {
			delta.Deleted = append(delta.Deleted, RowChange{Row: old, Old: dataset.NormalizeItems(s.rows[old].items)})
		}
	}

	// Commit the successor state.
	s.d = nd
	s.cuts = newCuts
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

// renderRow builds row j of d into a fresh item slice under the given
// fitted cuts, writing its part ends into ends. With old == nil every
// part is computed. Otherwise old is the row's predecessor: the
// attribute part is re-rendered only when redoAttr, and layer li's part
// is re-extracted only when layerDirty[li][j], every other part being
// copied from old. pref is the row's prepared reference geometry (nil
// when unprepared). The cuts are a parameter, not s.cuts: Apply renders
// rows under the successor's refit before committing it.
func (s *State) renderRow(d *dataset.Dataset, cuts map[string]*FittedDiscretizer, j int, pref *geom.Prepared, old *row, redoAttr bool, layerDirty [][]bool, ends []int, buf *[]int, st *extractStats) []string {
	ref := &d.Reference.Features[j]
	var items []string
	if old == nil {
		items = make([]string, 0, 8)
	} else {
		items = make([]string, 0, len(old.items)+4)
	}
	if old == nil || redoAttr {
		if s.opts.IncludeIsA {
			items = append(items, "is_a_"+d.Reference.Type)
		}
		items = appendAttrItems(items, ref, d.NonSpatialAttrs, cuts)
	} else {
		items = append(items, old.part(0)...)
	}
	ends[0] = len(items)
	if !s.anyFamily {
		for li := range d.Relevant {
			ends[1+li] = len(items)
		}
		return items
	}
	refEnv := ref.Geometry.Envelope()
	if pref != nil {
		refEnv = pref.Envelope()
	}
	for li, l := range s.layers {
		if old == nil || (layerDirty[li] != nil && layerDirty[li][j]) {
			*buf = gatherCandidates(l, refEnv, s.opts, *buf)
			st.candidates += int64(len(*buf))
			items = appendSpatialItems(items, ref, pref, d.Relevant[li], l.Prepared, s.layerNames(li), refEnv, *buf, s.opts, st)
		} else {
			items = append(items, old.part(1+li)...)
		}
		ends[1+li] = len(items)
	}
	return items
}

// prepareRef prepares row j's reference geometry for the refine stage;
// nil when prepared geometries are off.
func (s *State) prepareRef(d *dataset.Dataset, j int) *geom.Prepared {
	if !s.anyFamily || s.opts.NoPrepare {
		return nil
	}
	return geom.Prepare(d.Reference.Features[j].Geometry)
}

// layerNames returns the predicate table of layer li, nil at instance
// granularity.
func (s *State) layerNames(li int) []string {
	if s.names == nil {
		return nil
	}
	return s.names[li]
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
