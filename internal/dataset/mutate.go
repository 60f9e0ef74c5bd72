package dataset

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/geom"
)

// Mutation op actions.
const (
	// OpInsert appends a new feature to a layer.
	OpInsert = "insert"
	// OpUpdate replaces the geometry and/or attributes of a feature.
	OpUpdate = "update"
	// OpDelete removes a feature from a layer.
	OpDelete = "delete"
)

// Op is one dataset mutation: insert, update, or delete a feature in a
// named layer (the reference layer or any relevant layer, addressed by
// feature-type name). It is the wire form of PATCH /v1/datasets/{digest}
// and of the CLI -mutate file.
type Op struct {
	// Action is one of OpInsert, OpUpdate, OpDelete.
	Action string `json:"action"`
	// Layer names the target layer by feature type.
	Layer string `json:"layer"`
	// ID addresses the feature within the layer.
	ID string `json:"id"`
	// WKT is the geometry for inserts (required) and updates (optional:
	// empty keeps the current geometry).
	WKT string `json:"wkt,omitempty"`
	// Attrs are the non-spatial attributes for inserts, and the full
	// replacement attribute map for updates when non-nil.
	Attrs map[string]Value `json:"attrs,omitempty"`
}

// Mutation is a batch of ops applied atomically: either every op
// applies, or the dataset is unchanged.
type Mutation struct {
	Ops []Op `json:"ops"`
}

// LoadMutation reads a mutation batch from a JSON file of the form
// {"ops":[{"action":"insert","layer":"slum","id":"s9","wkt":"..."}]}.
// The file decodes strictly (DecodeStrict): unknown fields and anything
// after the document are rejected, so typos surface as errors, not
// silent no-ops.
func LoadMutation(path string) (*Mutation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: loading mutation %s: %w", path, err)
	}
	var m Mutation
	if err := DecodeStrict(data, &m); err != nil {
		return nil, fmt.Errorf("dataset: loading mutation %s: %w", path, err)
	}
	if len(m.Ops) == 0 {
		return nil, fmt.Errorf("dataset: loading mutation %s: no ops", path)
	}
	return &m, nil
}

// LayerDiff summarises what changed in one layer, by feature ID.
type LayerDiff struct {
	Updated  []string `json:"updated,omitempty"`
	Inserted []string `json:"inserted,omitempty"`
	Deleted  []string `json:"deleted,omitempty"`
}

// Empty reports whether the diff records no change.
func (ld *LayerDiff) Empty() bool {
	return ld == nil || (len(ld.Updated) == 0 && len(ld.Inserted) == 0 && len(ld.Deleted) == 0)
}

// Count returns the number of changed features.
func (ld *LayerDiff) Count() int {
	if ld == nil {
		return 0
	}
	return len(ld.Updated) + len(ld.Inserted) + len(ld.Deleted)
}

// ChangeSet is the structured delta between a dataset and its mutated
// successor: per-layer feature diffs keyed by feature-type name. The
// incremental extraction state consumes it to invalidate exactly the
// dirty region.
type ChangeSet struct {
	// ByLayer maps feature-type name to that layer's diff. Layers with
	// no change have no entry.
	ByLayer map[string]*LayerDiff `json:"byLayer"`
}

// Layer returns the diff for a layer (nil when unchanged).
func (cs *ChangeSet) Layer(name string) *LayerDiff {
	if cs == nil {
		return nil
	}
	return cs.ByLayer[name]
}

// Empty reports whether nothing changed.
func (cs *ChangeSet) Empty() bool {
	if cs == nil {
		return true
	}
	for _, ld := range cs.ByLayer {
		if !ld.Empty() {
			return false
		}
	}
	return true
}

// Count returns the total number of changed features across layers.
func (cs *ChangeSet) Count() int {
	if cs == nil {
		return 0
	}
	n := 0
	for _, ld := range cs.ByLayer {
		n += ld.Count()
	}
	return n
}

// ApplyOps applies a batch of mutation ops to d, returning the successor
// dataset and the change set. d itself is never modified: layers are
// copied, and untouched features share their geometry values (immutable
// by convention) with the original. Updates replace features in place
// (row order is preserved), deletes remove them (later rows shift up),
// and inserts append. The ops are validated up front — an unknown layer
// or ID, a duplicate insert, or invalid WKT fails the whole batch, and so
// does an op naming a layer type that more than one layer of d has.
//
// A feature deleted and re-inserted in one batch moves to the end of its
// layer and is reported as deleted + inserted, not updated. An op that
// names an ID the layer repeats addresses the first of those features
// still present. The batch takes time linear in the touched layers'
// sizes plus the ops.
func (d *Dataset) ApplyOps(ops []Op) (*Dataset, *ChangeSet, error) {
	if d.Reference == nil {
		return nil, nil, fmt.Errorf("dataset: mutate: no reference layer")
	}
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("dataset: mutate: empty op batch")
	}

	// Copy-on-write scaffolding: one mutable copy per touched layer.
	nd := &Dataset{
		Reference:       d.Reference,
		Relevant:        append([]*Layer{}, d.Relevant...),
		NonSpatialAttrs: d.NonSpatialAttrs,
	}
	edits := make(map[string]*layerEdit) // layer type -> its mutable copy
	editOf := func(name string) (*layerEdit, error) {
		if le, ok := edits[name]; ok {
			return le, nil
		}
		slot, count := -1, 0 // slot: index into Relevant, -1 for the reference layer
		if d.Reference.Type == name {
			count++
		}
		for i, l := range d.Relevant {
			if l.Type == name {
				if count == 0 {
					slot = i
				}
				count++
			}
		}
		switch {
		case count == 0:
			return nil, fmt.Errorf("dataset: mutate: unknown layer %q", name)
		case count > 1:
			return nil, fmt.Errorf("dataset: mutate: layer type %q names %d layers", name, count)
		}
		var le *layerEdit
		if slot < 0 {
			le = newLayerEdit(d.Reference)
			nd.Reference = le.l
		} else {
			le = newLayerEdit(d.Relevant[slot])
			nd.Relevant[slot] = le.l
		}
		edits[name] = le
		return le, nil
	}

	// Track the net effect per (layer, id): features present before the
	// batch and modified are "updated"; features added by the batch are
	// "inserted" (an insert then update stays inserted); present-before
	// features removed are "deleted".
	type featState struct {
		existedBefore bool
		inserted      bool
		updated       bool
		deleted       bool
	}
	states := make(map[string]map[string]*featState)
	stateOf := func(layer, id string, existedBefore bool) *featState {
		if states[layer] == nil {
			states[layer] = make(map[string]*featState)
		}
		st, ok := states[layer][id]
		if !ok {
			st = &featState{existedBefore: existedBefore}
			states[layer][id] = st
		}
		return st
	}

	for i, op := range ops {
		le, err := editOf(op.Layer)
		if err != nil {
			return nil, nil, fmt.Errorf("op %d: %w", i, err)
		}
		if op.ID == "" {
			return nil, nil, fmt.Errorf("dataset: mutate: op %d: empty feature ID", i)
		}
		at, found := le.at[op.ID]
		switch op.Action {
		case OpInsert:
			if found {
				return nil, nil, fmt.Errorf("dataset: mutate: op %d: insert: feature %q already exists in layer %q", i, op.ID, op.Layer)
			}
			if op.WKT == "" {
				return nil, nil, fmt.Errorf("dataset: mutate: op %d: insert needs a wkt geometry", i)
			}
			g, err := geom.ParseWKT(op.WKT)
			if err != nil {
				return nil, nil, fmt.Errorf("dataset: mutate: op %d: %w", i, err)
			}
			if err := geom.Validate(g); err != nil {
				return nil, nil, fmt.Errorf("dataset: mutate: op %d: %w", i, err)
			}
			le.insert(Feature{ID: op.ID, Geometry: g, Attrs: copyAttrs(op.Attrs)})
			st := stateOf(op.Layer, op.ID, false)
			st.inserted, st.deleted = true, false
		case OpUpdate:
			if !found {
				return nil, nil, fmt.Errorf("dataset: mutate: op %d: update: no feature %q in layer %q", i, op.ID, op.Layer)
			}
			f := le.l.Features[at] // value copy; the original layer keeps its own
			if op.WKT != "" {
				g, err := geom.ParseWKT(op.WKT)
				if err != nil {
					return nil, nil, fmt.Errorf("dataset: mutate: op %d: %w", i, err)
				}
				if err := geom.Validate(g); err != nil {
					return nil, nil, fmt.Errorf("dataset: mutate: op %d: %w", i, err)
				}
				f.Geometry = g
			}
			if op.Attrs != nil {
				f.Attrs = copyAttrs(op.Attrs)
			}
			if op.WKT == "" && op.Attrs == nil {
				return nil, nil, fmt.Errorf("dataset: mutate: op %d: update changes neither wkt nor attrs", i)
			}
			le.l.Features[at] = f
			st := stateOf(op.Layer, op.ID, true)
			if !st.inserted {
				st.updated = true
			}
		case OpDelete:
			if !found {
				return nil, nil, fmt.Errorf("dataset: mutate: op %d: delete: no feature %q in layer %q", i, op.ID, op.Layer)
			}
			le.delete(op.ID, at)
			st := stateOf(op.Layer, op.ID, true)
			if st.inserted && !st.existedBefore {
				// Inserted then deleted within the batch: net no-op.
				delete(states[op.Layer], op.ID)
			} else {
				st.deleted, st.inserted, st.updated = true, false, false
			}
		default:
			return nil, nil, fmt.Errorf("dataset: mutate: op %d: unknown action %q (want insert, update, or delete)", i, op.Action)
		}
	}
	for _, le := range edits {
		le.compact()
	}

	cs := &ChangeSet{ByLayer: make(map[string]*LayerDiff)}
	for layer, byID := range states {
		ld := &LayerDiff{}
		for id, st := range byID {
			switch {
			case st.deleted:
				ld.Deleted = append(ld.Deleted, id)
			case st.inserted && st.existedBefore:
				// Deleted then re-inserted within the batch: the feature
				// moved to the end of its layer.
				ld.Deleted = append(ld.Deleted, id)
				ld.Inserted = append(ld.Inserted, id)
			case st.inserted:
				ld.Inserted = append(ld.Inserted, id)
			case st.updated:
				ld.Updated = append(ld.Updated, id)
			}
		}
		sort.Strings(ld.Updated)
		sort.Strings(ld.Inserted)
		sort.Strings(ld.Deleted)
		if !ld.Empty() {
			cs.ByLayer[layer] = ld
		}
	}
	if nd.Reference.Len() == 0 {
		return nil, nil, fmt.Errorf("dataset: mutate: batch deletes every reference feature")
	}
	return nd, cs, nil
}

// layerEdit is ApplyOps' mutable copy of one layer. A delete only marks
// its feature dead, and compact drops the dead in one pass at the end,
// so no op shifts the layer.
type layerEdit struct {
	l *Layer
	// at maps an ID to the position of the first live feature with it.
	at map[string]int
	// later lists, for an ID the layer repeats, the positions of its
	// other features in order; a delete hands at the next one.
	later map[string][]int
	dead  []bool
	ndead int
}

func newLayerEdit(src *Layer) *layerEdit {
	le := &layerEdit{
		l:    &Layer{Type: src.Type, Features: append([]Feature{}, src.Features...)},
		at:   make(map[string]int, len(src.Features)),
		dead: make([]bool, len(src.Features)),
	}
	for i := range src.Features {
		id := src.Features[i].ID
		if _, ok := le.at[id]; !ok {
			le.at[id] = i
		} else {
			if le.later == nil {
				le.later = make(map[string][]int)
			}
			le.later[id] = append(le.later[id], i)
		}
	}
	return le
}

// insert appends f, whose ID has no live feature.
func (le *layerEdit) insert(f Feature) {
	le.at[f.ID] = len(le.l.Features)
	le.l.Features = append(le.l.Features, f)
	le.dead = append(le.dead, false)
}

// delete kills the feature at position at, the first live one with id.
func (le *layerEdit) delete(id string, at int) {
	le.dead[at] = true
	le.ndead++
	if rest := le.later[id]; len(rest) > 0 {
		le.at[id], le.later[id] = rest[0], rest[1:]
	} else {
		delete(le.at, id)
	}
}

// compact drops the dead features, keeping the order of the rest.
func (le *layerEdit) compact() {
	if le.ndead == 0 {
		return
	}
	fs := le.l.Features
	live := fs[:0]
	for i, f := range fs {
		if !le.dead[i] {
			live = append(live, f)
		}
	}
	clear(fs[len(live):]) // release the dead features' geometries
	le.l.Features = live
}

// copyAttrs clones an attribute map so the successor never aliases the
// caller's (or the wire decoder's) map.
func copyAttrs(attrs map[string]Value) map[string]Value {
	if attrs == nil {
		return nil
	}
	cp := make(map[string]Value, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	return cp
}
