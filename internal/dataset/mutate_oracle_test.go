package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"repro/internal/geom"
)

// applyOpsLoop is ApplyOps as it was before it kept an ID index per
// layer: every op scans its layer for the ID and every delete shifts the
// layer. It is the oracle of TestApplyOpsMatchesLoop. Where a layer type
// names several layers it copies the first over all of them, the defect
// ApplyOps now refuses, so the oracle is only asked about datasets with
// distinct layer types.
func applyOpsLoop(d *Dataset, ops []Op) (*Dataset, *ChangeSet, error) {
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
	copied := make(map[string]*Layer) // layer type -> mutable copy
	layerOf := func(name string) (*Layer, error) {
		if l, ok := copied[name]; ok {
			return l, nil
		}
		var src *Layer
		if d.Reference.Type == name {
			src = d.Reference
		} else {
			for _, l := range d.Relevant {
				if l.Type == name {
					src = l
					break
				}
			}
		}
		if src == nil {
			return nil, fmt.Errorf("dataset: mutate: unknown layer %q", name)
		}
		cp := &Layer{Type: src.Type, Features: append([]Feature{}, src.Features...)}
		copied[name] = cp
		if src == d.Reference {
			nd.Reference = cp
		} else {
			for i, l := range nd.Relevant {
				if l.Type == name {
					nd.Relevant[i] = cp
				}
			}
		}
		return cp, nil
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
		l, err := layerOf(op.Layer)
		if err != nil {
			return nil, nil, fmt.Errorf("op %d: %w", i, err)
		}
		if op.ID == "" {
			return nil, nil, fmt.Errorf("dataset: mutate: op %d: empty feature ID", i)
		}
		at := -1
		for j := range l.Features {
			if l.Features[j].ID == op.ID {
				at = j
				break
			}
		}
		switch op.Action {
		case OpInsert:
			if at >= 0 {
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
			l.Features = append(l.Features, Feature{ID: op.ID, Geometry: g, Attrs: copyAttrs(op.Attrs)})
			st := stateOf(op.Layer, op.ID, false)
			st.inserted, st.deleted = true, false
		case OpUpdate:
			if at < 0 {
				return nil, nil, fmt.Errorf("dataset: mutate: op %d: update: no feature %q in layer %q", i, op.ID, op.Layer)
			}
			f := l.Features[at] // value copy; the original layer keeps its own
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
			l.Features[at] = f
			st := stateOf(op.Layer, op.ID, true)
			if !st.inserted {
				st.updated = true
			}
		case OpDelete:
			if at < 0 {
				return nil, nil, fmt.Errorf("dataset: mutate: op %d: delete: no feature %q in layer %q", i, op.ID, op.Layer)
			}
			l.Features = append(l.Features[:at], l.Features[at+1:]...)
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

// randomMutationScene builds a scene of distinct layer types whose
// features draw their IDs from a small pool, so that some layers repeat
// an ID.
func randomMutationScene(rng *rand.Rand) *Dataset {
	layer := func(typ string) *Layer {
		l := NewLayer(typ)
		for i, n := 0, rng.Intn(7); i < n; i++ {
			l.Add(Feature{ID: fmt.Sprintf("f%d", rng.Intn(8)), Geometry: geom.Pt(float64(i), float64(rng.Intn(5)))})
		}
		return l
	}
	d := &Dataset{Reference: layer("ref")}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		d.Relevant = append(d.Relevant, layer(fmt.Sprintf("rel%d", i)))
	}
	return d
}

func featureIDs(l *Layer) []string {
	ids := make([]string, l.Len())
	for i, f := range l.Features {
		ids[i] = f.ID
	}
	return ids
}

// randomOps draws a batch that mostly applies, with the occasional bad
// op of every kind ApplyOps refuses. Updates and deletes mostly name a
// feature of d, inserts mostly a fresh ID, and some inserts re-insert
// an ID of d, which applies after a delete of it.
func randomOps(rng *rand.Rand, d *Dataset) []Op {
	layers := append([]*Layer{d.Reference}, d.Relevant...)
	ops := make([]Op, 1+rng.Intn(8))
	for i := range ops {
		l := layers[rng.Intn(len(layers))]
		op := Op{Layer: l.Type, ID: fmt.Sprintf("f%d", rng.Intn(8))}
		if l.Len() > 0 {
			op.ID = l.Features[rng.Intn(l.Len())].ID
		}
		switch r := rng.Intn(100); {
		case r < 25:
			op.Action, op.WKT = OpInsert, fmt.Sprintf("POINT (%d %d)", rng.Intn(9), rng.Intn(9))
			if r < 20 {
				op.ID = fmt.Sprintf("n%d", rng.Intn(4))
			}
		case r < 45:
			op.Action, op.WKT = OpUpdate, fmt.Sprintf("POINT (%d 1)", rng.Intn(9))
		case r < 55:
			op.Action, op.Attrs = OpUpdate, map[string]Value{"k": float64(rng.Intn(3))}
		case r < 94:
			op.Action = OpDelete
		case r == 94:
			op.Action, op.Layer = OpDelete, "nope"
		case r == 95:
			op.Action, op.ID = OpDelete, ""
		case r == 96:
			op.Action = "upsert"
		case r == 97:
			op.Action, op.ID, op.WKT = OpInsert, "n9", "POINT (1"
		case r == 98:
			op.Action = OpUpdate
		default:
			op.Action, op.ID = OpInsert, "n9"
		}
		ops[i] = op
	}
	return ops
}

func TestApplyOpsMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	applied, moved, repeated := 0, 0, 0
	for trial := 0; trial < 20000; trial++ {
		d := randomMutationScene(rng)
		ops := randomOps(rng, d)
		nd, cs, err := d.ApplyOps(ops)
		wnd, wcs, werr := applyOpsLoop(d, ops)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("trial %d: ops %+v: error %v, loop %v", trial, ops, err, werr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(nd, wnd) || !reflect.DeepEqual(cs, wcs) {
			t.Fatalf("trial %d: ops %+v:\n got %+v %+v\nloop %+v %+v", trial, ops, nd, cs, wnd, wcs)
		}
		applied++
		for _, ld := range cs.ByLayer {
			if len(ld.Inserted) > 0 && len(ld.Deleted) > 0 && setOf(ld.Deleted)[ld.Inserted[0]] {
				moved++
				break
			}
		}
		for _, l := range append([]*Layer{d.Reference}, d.Relevant...) {
			if len(setOf(featureIDs(l))) < l.Len() && cs.Layer(l.Type) != nil {
				repeated++
				break
			}
		}
	}
	// The batches must reach what the ID index changes: deletes in
	// layers that repeat an ID, and deletes followed by a re-insert.
	if applied < 5000 || moved < 100 || repeated < 500 {
		t.Fatalf("%d batches applied, %d re-inserted a deleted ID, %d changed a layer that repeats an ID", applied, moved, repeated)
	}
}

// TestApplyOpsLinear deletes half of a 40,000-feature layer in one
// batch, which took 2.0 s when every delete shifted the layer.
func TestApplyOpsLinear(t *testing.T) {
	const n = 40000
	ref := NewLayer("district")
	for i := 0; i < n; i++ {
		ref.Add(Feature{ID: fmt.Sprintf("d%d", i), Geometry: geom.Pt(float64(i), 0)})
	}
	d := &Dataset{Reference: ref}
	ops := make([]Op, 0, n/2)
	for _, i := range rand.New(rand.NewSource(1)).Perm(n)[:n/2] {
		ops = append(ops, Op{Action: OpDelete, Layer: "district", ID: fmt.Sprintf("d%d", i)})
	}
	best := time.Duration(1<<63 - 1)
	for run := 0; run < 3; run++ {
		start := time.Now()
		nd, cs, err := d.ApplyOps(ops)
		best = min(best, time.Since(start))
		if err != nil {
			t.Fatal(err)
		}
		if nd.Reference.Len() != n/2 || len(cs.Layer("district").Deleted) != n/2 {
			t.Fatalf("%d features left, %d deleted", nd.Reference.Len(), len(cs.Layer("district").Deleted))
		}
	}
	if limit := 200 * time.Millisecond; best > limit {
		t.Fatalf("%d deletes of %d features took %v at best, want under %v", n/2, n, best, limit)
	}
}

// TestApplyOneOpAllocatesNoIndex: a one-op batch finds its feature by a
// scan instead of indexing every ID of the layer it touches, so an
// update or a delete on a 10,000-feature layer allocates the layer's
// copied feature slice plus a small constant (a delete adds a byte per
// feature to mark the dead). An ID index would add about as much again
// as the feature slice.
func TestApplyOneOpAllocatesNoIndex(t *testing.T) {
	const n = 10000
	ref := NewLayer("district")
	for i := 0; i < n; i++ {
		ref.Add(Feature{ID: fmt.Sprintf("d%d", i), Geometry: geom.Pt(float64(i), 0)})
	}
	d := &Dataset{Reference: ref}
	features := uint64(n) * uint64(unsafe.Sizeof(Feature{}))
	const slack, runs = 32 << 10, 4
	for _, op := range []Op{
		{Action: OpUpdate, Layer: "district", ID: "d7000", WKT: "POINT (1 1)"},
		{Action: OpDelete, Layer: "district", ID: "d7000"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, _, err := d.ApplyOps([]Op{op}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > features+slack {
			t.Errorf("one %s on %d features allocates %d bytes, want at most the %d-byte feature slice plus %d",
				op.Action, n, per, features, slack)
		}
	}
}

// TestApplyOpsRejectsRepeatedLayerType: ops on a type two layers share
// used to copy the first layer over both, losing the second's features.
func TestApplyOpsRejectsRepeatedLayerType(t *testing.T) {
	layer := func(typ, id string) *Layer {
		return NewLayer(typ).Add(Feature{ID: id, Geometry: geom.Pt(0, 0)})
	}
	for name, d := range map[string]*Dataset{
		"relevant":  {Reference: layer("district", "d1"), Relevant: []*Layer{layer("x", "a1"), layer("x", "b1")}},
		"reference": {Reference: layer("x", "a1"), Relevant: []*Layer{layer("x", "b1")}},
	} {
		_, _, err := d.ApplyOps([]Op{{Action: OpUpdate, Layer: "x", ID: "a1", WKT: "POINT (1 1)"}})
		if err == nil || err.Error() != `op 0: dataset: mutate: layer type "x" names 2 layers` {
			t.Errorf("%s: err = %v, want the repeated type named", name, err)
		}
	}
	// A repeated type no op names does not stop the batch.
	d := &Dataset{Reference: layer("district", "d1"), Relevant: []*Layer{layer("x", "a1"), layer("x", "b1")}}
	nd, _, err := d.ApplyOps([]Op{{Action: OpUpdate, Layer: "district", ID: "d1", WKT: "POINT (1 1)"}})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Relevant[0] != d.Relevant[0] || nd.Relevant[1] != d.Relevant[1] {
		t.Fatal("untouched layers were copied")
	}
}
