package transact

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/qsr"
)

// stateOptionsUnderTest covers every relation family and index kind the
// incremental state must stay equivalent under.
func stateOptionsUnderTest() map[string]Options {
	return map[string]Options{
		"topological":  {Topological: true, IncludeIsA: true, Index: RTreeIndex},
		"withDisjoint": {Topological: true, IncludeDisjoint: true, Index: NoIndex},
		"distance":     {Distance: true, Thresholds: qsr.DefaultThresholds(10), Index: RTreeIndex},
		"farFrom":      {Distance: true, Thresholds: qsr.DefaultThresholds(10), IncludeFarFrom: true, Index: NoIndex},
		"directional":  {Directional: true, Index: NoIndex},
		"combined":     {Topological: true, Distance: true, Thresholds: qsr.DefaultThresholds(10), IncludeIsA: true, Index: RTreeIndex},
		"unprepared":   {Topological: true, NoPrepare: true, Index: RTreeIndex},
	}
}

// sceneForState generates a small deterministic scene.
func sceneForState(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	d, err := datagen.GenerateScene(datagen.DefaultScene(4, 3, seed))
	if err != nil {
		t.Fatalf("GenerateScene: %v", err)
	}
	return d
}

// assertTablesEqual requires positionally identical tables.
func assertTablesEqual(t *testing.T, got, want *dataset.Table, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Transactions {
		g, w := got.Transactions[i], want.Transactions[i]
		if g.RefID != w.RefID {
			t.Fatalf("%s: row %d RefID = %q, want %q", label, i, g.RefID, w.RefID)
		}
		if fmt.Sprint(g.Items) != fmt.Sprint(w.Items) {
			t.Fatalf("%s: row %d (%s) items =\n%v\nwant\n%v", label, i, g.RefID, g.Items, w.Items)
		}
	}
}

// tableDigest hashes a normalised table, one "RefID<TAB>items" line per
// row with the items space-joined.
func tableDigest(table *dataset.Table) string {
	h := sha256.New()
	for _, tx := range table.Transactions {
		fmt.Fprintf(h, "%s\t%s\n", tx.RefID, strings.Join(tx.Items, " "))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestExtractGoldenDigests pins the exact extracted tables: the digests
// were recorded when the one-shot extraction still ran its own driver,
// beside the incremental State. Now that Extract is a State build, a
// State-vs-Extract comparison would compare the code with itself; these
// digests keep the extraction output anchored to the old driver for
// every option set, two scenes, and sequential as well as parallel rows.
func TestExtractGoldenDigests(t *testing.T) {
	golden := map[string]string{
		"topological/seed=7":   "50281a577aba34191a293b521d8b3c431d2c79ec70ca4dd0ceaea0191982b3bd",
		"topological/seed=13":  "1dcb543910bff1a090fce5d4922ecc6083e7698f5584ed1d5f5626a1896fb7c5",
		"withDisjoint/seed=7":  "cf35f725eed403f4c6b0fac53845802b9810042d510b2716cdce9dee799bc90a",
		"withDisjoint/seed=13": "2767990e8d264b2aa1062bb7e701e4c7c46cf4ec58cd078931be94eb14879c5d",
		"distance/seed=7":      "07aef76043623375b0a7d5eb49182369266be3b149dd4376a362a287a700bfc9",
		"distance/seed=13":     "46e5b543e90684885450e072ad4bbd4905d8b30931b0e35b7978dc0e76bf3552",
		"farFrom/seed=7":       "6964b260440655abe4d8d9ec67fed1e4cf5c44e7b6b7460728afb10b4849fb2d",
		"farFrom/seed=13":      "f0acd4cd5fa369374c2af45e7fb4b1ac2c0d1861fa1fc16252313ed21609e1df",
		"directional/seed=7":   "d11df88657046ecdbfa0e07004c294280a1f89c28e373c2c167c135e363ba69a",
		"directional/seed=13":  "c0e9708a2d7c397d9e0ca367a9bdde89c483073e0a3240e9831c34fade6d5f49",
		"combined/seed=7":      "a25f26b03891c668d78ee46981433ce8df0d5d9d48d1ad81d2741515ca29339a",
		"combined/seed=13":     "2ef749c1ba7d2adfb25050030db97a15e048cbbd629a23e764d9510fb1d794ce",
		"unprepared/seed=7":    "402982b836c56d4d192b7826d786a0e9fe86a1b84c31e456d5dd40a93e204f5c",
		"unprepared/seed=13":   "9a6d094fd526f220df54459c18795207d1f5ae07a0ab2e2818a4e77a074e415f",
	}
	for name, opts := range stateOptionsUnderTest() {
		for _, seed := range []int64{7, 13} {
			d := sceneForState(t, seed)
			key := fmt.Sprintf("%s/seed=%d", name, seed)
			for _, par := range []int{1, 4} {
				opts.Parallelism = par
				t.Run(fmt.Sprintf("%s/par=%d", key, par), func(t *testing.T) {
					table, err := Extract(d, opts)
					if err != nil {
						t.Fatalf("Extract: %v", err)
					}
					if got := tableDigest(table); got != golden[key] {
						t.Errorf("table digest moved:\n got %s\nwant %s", got, golden[key])
					}
				})
			}
		}
	}
}

// rectWKT renders an axis-aligned rectangle as polygon WKT.
func rectWKT(minX, minY, maxX, maxY float64) string {
	return fmt.Sprintf("POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))",
		minX, minY, maxX, minY, maxX, maxY, minX, maxY, minX, minY)
}

// randomSceneOps builds a valid mutation batch against d using every op
// kind across the reference and relevant layers. tag keeps insert IDs
// unique across successive batches.
func randomSceneOps(rng *rand.Rand, d *dataset.Dataset, nOps int, tag string) []dataset.Op {
	var ops []dataset.Op
	deleted := map[string]bool{}
	inserted := 0
	for len(ops) < nOps {
		// Pick a layer: mostly relevant ones, sometimes the reference.
		var layer *dataset.Layer
		if rng.Float64() < 0.2 {
			layer = d.Reference
		} else {
			layer = d.Relevant[rng.Intn(len(d.Relevant))]
		}
		if layer.Len() == 0 {
			continue
		}
		f := layer.Features[rng.Intn(layer.Len())]
		key := layer.Type + "/" + f.ID
		switch rng.Intn(5) {
		case 4: // delete and re-insert under the same ID: ApplyOps reports
			// deleted + inserted and moves the feature to the end of its
			// layer, with a fresh geometry (and no attributes)
			if deleted[key] {
				continue
			}
			deleted[key] = true
			x, y := rng.Float64()*40, rng.Float64()*30
			ops = append(ops,
				dataset.Op{Action: dataset.OpDelete, Layer: layer.Type, ID: f.ID},
				dataset.Op{Action: dataset.OpInsert, Layer: layer.Type, ID: f.ID, WKT: rectWKT(x, y, x+3, y+3)})
		case 3: // attribute update on a reference district: a numeric
			// value shifts (or first creates) the crimeRate column's
			// fitted cuts, exercising the refit path
			rf := d.Reference.Features[rng.Intn(d.Reference.Len())]
			rkey := d.Reference.Type + "/" + rf.ID
			if deleted[rkey] {
				continue
			}
			ops = append(ops, dataset.Op{
				Action: dataset.OpUpdate, Layer: d.Reference.Type, ID: rf.ID,
				Attrs: map[string]dataset.Value{"crimeRate": rng.Float64() * 100},
			})
		case 0: // update: replace with a nudged rectangle (pad degenerate
			// point/line envelopes so the polygon stays valid)
			if deleted[key] {
				continue
			}
			env := f.Geometry.Envelope()
			w := env.MaxX - env.MinX
			if w < 0.5 {
				w = 0.5
			}
			h := env.MaxY - env.MinY
			if h < 0.5 {
				h = 0.5
			}
			dx, dy := (rng.Float64()-0.5)*4, (rng.Float64()-0.5)*4
			wkt := rectWKT(env.MinX+dx, env.MinY+dy, env.MinX+dx+w, env.MinY+dy+h)
			ops = append(ops, dataset.Op{Action: dataset.OpUpdate, Layer: layer.Type, ID: f.ID, WKT: wkt})
		case 1: // insert a fresh rectangle
			x, y := rng.Float64()*40, rng.Float64()*30
			id := fmt.Sprintf("new_%s_%s_%d", tag, layer.Type, inserted)
			inserted++
			ops = append(ops, dataset.Op{Action: dataset.OpInsert, Layer: layer.Type, ID: id, WKT: rectWKT(x, y, x+2, y+2)})
		default: // delete (keep the reference layer populated)
			if deleted[key] || (layer == d.Reference && layer.Len() < 4) {
				continue
			}
			deleted[key] = true
			ops = append(ops, dataset.Op{Action: dataset.OpDelete, Layer: layer.Type, ID: f.ID})
		}
	}
	return ops
}

func TestStateApplyMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, opts := range stateOptionsUnderTest() {
		t.Run(name, func(t *testing.T) {
			d := sceneForState(t, 13)
			st, err := NewState(d, opts)
			if err != nil {
				t.Fatalf("NewState: %v", err)
			}
			for step := 0; step < 4; step++ {
				ops := randomSceneOps(rng, d, 1+rng.Intn(4), fmt.Sprintf("%s%d", name, step))
				nd, cs, err := d.ApplyOps(ops)
				if err != nil {
					t.Fatalf("step %d: ApplyOps: %v", step, err)
				}
				prevTable := st.Table()
				delta, err := st.Apply(context.Background(), nd, cs)
				if err != nil {
					t.Fatalf("step %d: Apply: %v", step, err)
				}
				want, err := Extract(nd, opts)
				if err != nil {
					t.Fatalf("step %d: Extract: %v", step, err)
				}
				got := st.Table()
				assertTablesEqual(t, got, want, fmt.Sprintf("step %d", step))
				verifyDelta(t, delta, prevTable, got, step)
				d = nd
			}
		})
	}
}

// verifyDelta cross-checks a TableDelta against the actual before/after
// tables: the mapping is consistent, every changed row is reported with
// its exact old/new items, and every unreported surviving row is
// unchanged.
func verifyDelta(t *testing.T, delta *TableDelta, before, after *dataset.Table, step int) {
	t.Helper()
	if delta.RowsTotal != after.Len() {
		t.Fatalf("step %d: RowsTotal = %d, want %d", step, delta.RowsTotal, after.Len())
	}
	if delta.RowsDirty+delta.RowsReused != delta.RowsTotal {
		t.Fatalf("step %d: dirty %d + reused %d != total %d", step, delta.RowsDirty, delta.RowsReused, delta.RowsTotal)
	}
	changed := map[int]RowChange{}
	for _, c := range delta.Changed {
		changed[c.Row] = c
	}
	for j, old := range delta.NewFromOld {
		a := after.Transactions[j]
		c, isChanged := changed[j]
		if old < 0 {
			if !isChanged || c.Old != nil {
				t.Fatalf("step %d: inserted row %d must be reported with nil Old", step, j)
			}
			continue
		}
		b := before.Transactions[old]
		if a.RefID != b.RefID {
			t.Fatalf("step %d: NewFromOld[%d]=%d maps %q to %q", step, j, old, b.RefID, a.RefID)
		}
		if isChanged {
			if fmt.Sprint(c.Old) != fmt.Sprint(b.Items) || fmt.Sprint(c.New) != fmt.Sprint(a.Items) {
				t.Fatalf("step %d: changed row %d items mismatch", step, j)
			}
			if fmt.Sprint(b.Items) == fmt.Sprint(a.Items) {
				t.Fatalf("step %d: row %d reported changed but identical", step, j)
			}
		} else if fmt.Sprint(a.Items) != fmt.Sprint(b.Items) {
			t.Fatalf("step %d: row %d (%s) changed but unreported:\nold %v\nnew %v",
				step, j, a.RefID, b.Items, a.Items)
		}
	}
	// Deleted rows: exactly the old indices missing from NewFromOld.
	missing := map[int]bool{}
	for old := 0; old < before.Len(); old++ {
		missing[old] = true
	}
	for _, old := range delta.NewFromOld {
		if old >= 0 {
			delete(missing, old)
		}
	}
	if len(missing) != len(delta.Deleted) {
		t.Fatalf("step %d: %d deleted rows reported, want %d", step, len(delta.Deleted), len(missing))
	}
	for _, del := range delta.Deleted {
		if !missing[del.Row] || del.New != nil {
			t.Fatalf("step %d: bad deletion record %+v", step, del)
		}
		if fmt.Sprint(del.Old) != fmt.Sprint(before.Transactions[del.Row].Items) {
			t.Fatalf("step %d: deleted row %d items mismatch", step, del.Row)
		}
	}
}

// TestStateApplyAttributeShiftMatchesFromScratch pins the review repro:
// an attribute edit that moves the fitted discretizer cuts, combined
// with a geometry nudge on another reference feature. The nudged row
// re-extracts fully and must render its (unchanged) numeric attribute
// under the refit cuts — with stale cuts it keeps its old bin label and
// diverges from a cold extraction.
func TestStateApplyAttributeShiftMatchesFromScratch(t *testing.T) {
	districts := dataset.NewLayer("district")
	for i, pop := range []float64{1, 2, 3, 4} {
		x := float64(i) * 10
		districts.Add(dataset.Feature{
			ID:       fmt.Sprintf("c%d", i),
			Geometry: geom.Rect(x, 0, x+10, 10),
			Attrs:    map[string]dataset.Value{"pop": pop},
		})
	}
	schools := dataset.NewLayer("school")
	schools.AddGeometry(geom.Pt(5, 5))
	d := &dataset.Dataset{
		Reference:       districts,
		Relevant:        []*dataset.Layer{schools},
		NonSpatialAttrs: []string{"pop"},
	}
	opts := Options{Topological: true, Index: RTreeIndex}
	st, err := NewState(d, opts)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	// pop 1 -> 100 moves the tercile cuts from [2,3] to [3,4]: c3's
	// pop=4 drops from the high bin to the medium one.
	nd, cs, err := d.ApplyOps([]dataset.Op{
		{Action: dataset.OpUpdate, Layer: "district", ID: "c0", Attrs: map[string]dataset.Value{"pop": 100.0}},
		{Action: dataset.OpUpdate, Layer: "district", ID: "c3", WKT: rectWKT(30.5, 0, 40.5, 10)},
	})
	if err != nil {
		t.Fatalf("ApplyOps: %v", err)
	}
	if _, err := st.Apply(context.Background(), nd, cs); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want, err := Extract(nd, opts)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	assertTablesEqual(t, st.Table(), want, "attribute shift")
}

// reinsertOps deletes a feature and re-inserts it under the same ID with
// the geometry wkt, in one batch.
func reinsertOps(layer, id, wkt string) []dataset.Op {
	return []dataset.Op{
		{Action: dataset.OpDelete, Layer: layer, ID: id},
		{Action: dataset.OpInsert, Layer: layer, ID: id, WKT: wkt},
	}
}

// TestStateApplyReinsertedReferenceRow: a district deleted and
// re-inserted under the same ID in one batch is reported as deleted +
// inserted. Its row must be extracted afresh — carrying the predecessor
// row over by ID keeps the old district's predicates and attributes —
// on the prepared and on the raw path.
func TestStateApplyReinsertedReferenceRow(t *testing.T) {
	d := sceneForState(t, 13)
	nd, cs, err := d.ApplyOps(reinsertOps("district", "district_0_0", rectWKT(100, 100, 101, 101)))
	if err != nil {
		t.Fatalf("ApplyOps: %v", err)
	}
	for _, noPrepare := range []bool{false, true} {
		opts := Options{Topological: true, Index: RTreeIndex, NoPrepare: noPrepare}
		st, err := NewState(d, opts)
		if err != nil {
			t.Fatalf("NewState: %v", err)
		}
		prev := st.Table()
		delta, err := st.Apply(context.Background(), nd, cs)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		want, err := Extract(nd, opts)
		if err != nil {
			t.Fatalf("Extract: %v", err)
		}
		label := fmt.Sprintf("noPrepare=%v", noPrepare)
		assertTablesEqual(t, st.Table(), want, label)
		verifyDelta(t, delta, prev, st.Table(), 0)
	}
}

// TestStateApplyReinsertedRelevantFeature: a slum deleted and
// re-inserted elsewhere under the same ID must get a fresh prepared
// geometry. Reusing the predecessor's by ID indexes and relates the old
// shape: the district at the old spot keeps the slum, the one at the new
// spot never sees it.
func TestStateApplyReinsertedRelevantFeature(t *testing.T) {
	d := sceneForState(t, 13)
	slum := d.Relevant[0]
	// district_3_2 spans (30,20)-(40,30); slum 0 lies in district_0_0.
	nd, cs, err := d.ApplyOps(reinsertOps(slum.Type, slum.Features[0].ID, rectWKT(31, 21, 33, 23)))
	if err != nil {
		t.Fatalf("ApplyOps: %v", err)
	}
	opts := Options{Topological: true, Granularity: InstanceLevel, Index: RTreeIndex}
	st, err := NewState(d, opts)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	delta, err := st.Apply(context.Background(), nd, cs)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if delta.PreparedBuilt == 0 {
		t.Errorf("re-inserted slum reused its predecessor's prepared geometry")
	}
	want, err := Extract(nd, opts)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	assertTablesEqual(t, st.Table(), want, "re-inserted slum")
}

// assertApplyRejectsRepeatedID requires Apply to refuse the successor of
// a predecessor that repeats a feature ID, on the prepared and the raw
// path, and to leave the state's table as it was.
func assertApplyRejectsRepeatedID(t *testing.T, d *dataset.Dataset, ops []dataset.Op, label string) {
	t.Helper()
	nd, cs, err := d.ApplyOps(ops)
	if err != nil {
		t.Fatalf("%s: ApplyOps: %v", label, err)
	}
	for _, noPrepare := range []bool{false, true} {
		st, err := NewState(d, Options{Topological: true, Index: RTreeIndex, NoPrepare: noPrepare})
		if err != nil {
			t.Fatalf("%s: NewState: %v", label, err)
		}
		before := tableDigest(st.Table())
		if _, err := st.Apply(context.Background(), nd, cs); err == nil || !strings.Contains(err.Error(), "repeats feature ID") {
			t.Errorf("%s noPrepare=%v: Apply error = %v, want a repeated-ID error", label, noPrepare, err)
		}
		if tableDigest(st.Table()) != before {
			t.Errorf("%s noPrepare=%v: a rejected Apply changed the table", label, noPrepare)
		}
	}
}

// TestStateApplyRejectsRepeatedReferenceID: rows carry over by reference
// feature ID. With district_1_0 renamed to district_0_0, carrying rows
// over through a slum edit that leaves the row clean hands row
// district_0_0 the other district's items (contains_river1 ...) where a
// cold extraction gives contains_slum0 ....
func TestStateApplyRejectsRepeatedReferenceID(t *testing.T) {
	d := sceneForState(t, 13)
	d.Reference.Features[1].ID = d.Reference.Features[0].ID
	slum := d.Relevant[0].Features[2]
	assertApplyRejectsRepeatedID(t, d, []dataset.Op{{
		Action: dataset.OpUpdate, Layer: d.Relevant[0].Type, ID: slum.ID,
		WKT: geom.Translate(slum.Geometry, 0.25, 0).WKT(),
	}}, "reference")
}

// TestStateApplyRejectsRepeatedRelevantID: prepared geometries and dirty
// envelopes are matched by relevant feature ID. With the last slum
// renamed to the first slum's ID, matching through an insert beside the
// first slum hands the first slum the last one's prepared geometry,
// costing district_0_1 its covers_slum on the prepared path.
func TestStateApplyRejectsRepeatedRelevantID(t *testing.T) {
	for _, seed := range []int64{17, 21} {
		d := sceneForState(t, seed)
		slums := d.Relevant[0]
		first := slums.Features[0]
		slums.Features[slums.Len()-1].ID = first.ID
		c := first.Geometry.Envelope().Center()
		assertApplyRejectsRepeatedID(t, d, []dataset.Op{{
			Action: dataset.OpInsert, Layer: slums.Type, ID: "slum_beside",
			WKT: rectWKT(c.X-0.1, c.Y-0.1, c.X+0.1, c.Y+0.1),
		}}, fmt.Sprintf("seed %d", seed))
	}
}

// FuzzStateApply decodes the input as a PATCH op batch and applies it to
// a small generated scene. Whenever dataset.ApplyOps accepts the batch,
// the incremental State must land on exactly the table a from-scratch
// extraction of the successor produces, with prepared geometries and on
// the raw NoPrepare path.
func FuzzStateApply(f *testing.F) {
	d, err := datagen.GenerateScene(datagen.DefaultScene(3, 2, 13))
	if err != nil {
		f.Fatal(err)
	}
	slum := d.Relevant[0]
	school := d.Relevant[1]
	for _, ops := range [][]dataset.Op{
		reinsertOps("district", "district_0_0", rectWKT(100, 100, 101, 101)),
		reinsertOps(slum.Type, slum.Features[0].ID, rectWKT(21, 11, 23, 13)),
		{{Action: dataset.OpUpdate, Layer: school.Type, ID: school.Features[0].ID, WKT: "POINT (15 5)"}},
		{{Action: dataset.OpInsert, Layer: slum.Type, ID: "s_new", WKT: rectWKT(9, 9, 11, 11)},
			{Action: dataset.OpUpdate, Layer: "district", ID: "district_1_1", Attrs: map[string]dataset.Value{"crimeRate": 7.0}}},
	} {
		seed, err := json.Marshal(dataset.Mutation{Ops: ops})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	base := Options{
		Topological: true, Distance: true, Thresholds: qsr.DefaultThresholds(10),
		IncludeIsA: true, Granularity: InstanceLevel, Index: RTreeIndex, Parallelism: 1,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m dataset.Mutation
		if err := json.Unmarshal(data, &m); err != nil || len(m.Ops) > 16 {
			return
		}
		nd, cs, err := d.ApplyOps(m.Ops)
		if err != nil {
			return
		}
		for _, noPrepare := range []bool{false, true} {
			opts := base
			opts.NoPrepare = noPrepare
			st, err := NewState(d, opts)
			if err != nil {
				t.Fatalf("NewState: %v", err)
			}
			if _, err := st.Apply(context.Background(), nd, cs); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			want, err := Extract(nd, opts)
			if err != nil {
				t.Fatalf("Extract: %v", err)
			}
			assertTablesEqual(t, st.Table(), want, fmt.Sprintf("noPrepare=%v", noPrepare))
		}
	})
}

// TestStateApplySingleEditIsSparse pins that a one-feature edit
// re-extracts only the rows around it. The second case is a chain of 24
// one-feature edits on a 400-row scene: a delta beats a full
// re-extraction because it touches few rows, so the rows it re-extracts
// are bounded, a count that cannot flake the way a timed speedup can.
func TestStateApplySingleEditIsSparse(t *testing.T) {
	t.Run("slum", func(t *testing.T) {
		d := sceneForState(t, 29)
		opts := Options{Topological: true, IncludeIsA: true, Index: RTreeIndex}
		st, err := NewState(d, opts)
		if err != nil {
			t.Fatalf("NewState: %v", err)
		}
		// Move one slum within its district: only nearby rows may re-extract.
		layer := d.Relevant[0]
		f := layer.Features[0]
		env := f.Geometry.Envelope()
		wkt := fmt.Sprintf("POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))",
			env.MinX+1, env.MinY, env.MaxX+1, env.MinY,
			env.MaxX+1, env.MaxY, env.MinX+1, env.MaxY, env.MinX+1, env.MinY)
		nd, cs, err := d.ApplyOps([]dataset.Op{{Action: dataset.OpUpdate, Layer: layer.Type, ID: f.ID, WKT: wkt}})
		if err != nil {
			t.Fatalf("ApplyOps: %v", err)
		}
		delta, err := st.Apply(context.Background(), nd, cs)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		if delta.RowsDirty >= delta.RowsTotal {
			t.Errorf("single topological edit dirtied every row (%d/%d)", delta.RowsDirty, delta.RowsTotal)
		}
		if delta.RowsReused == 0 {
			t.Errorf("expected reused rows, got none")
		}
		if delta.PreparedReused == 0 {
			t.Errorf("expected reused prepared geometries, got none")
		}
		want, err := Extract(nd, opts)
		if err != nil {
			t.Fatalf("Extract: %v", err)
		}
		assertTablesEqual(t, st.Table(), want, "sparse apply")
	})
	t.Run("chain400", func(t *testing.T) {
		d, err := datagen.GenerateScene(datagen.DefaultScene(20, 20, 1))
		if err != nil {
			t.Fatalf("GenerateScene: %v", err)
		}
		opts := DefaultOptions()
		st, err := NewState(d, opts)
		if err != nil {
			t.Fatalf("NewState: %v", err)
		}
		// Step s edits relevant feature (13·s) mod N, counting features
		// in layer order: the feature becomes its envelope, each side
		// padded to at least 0.5, moved 0.75 right on even steps and
		// left on odd ones.
		type slot struct{ layer, id int }
		var slots []slot
		for li, l := range d.Relevant {
			for j := range l.Features {
				slots = append(slots, slot{li, j})
			}
		}
		cur, dirty := d, 0
		for s := 0; s < 24; s++ {
			sl := slots[(13*s)%len(slots)]
			layer := cur.Relevant[sl.layer]
			f := layer.Features[sl.id]
			env := f.Geometry.Envelope()
			if env.MaxX-env.MinX < 0.5 {
				env.MaxX = env.MinX + 0.5
			}
			if env.MaxY-env.MinY < 0.5 {
				env.MaxY = env.MinY + 0.5
			}
			dx := 0.75
			if s%2 == 1 {
				dx = -0.75
			}
			wkt := geom.Rect(env.MinX+dx, env.MinY, env.MaxX+dx, env.MaxY).WKT()
			nd, cs, err := cur.ApplyOps([]dataset.Op{{Action: dataset.OpUpdate, Layer: layer.Type, ID: f.ID, WKT: wkt}})
			if err != nil {
				t.Fatalf("step %d: ApplyOps: %v", s, err)
			}
			delta, err := st.Apply(context.Background(), nd, cs)
			if err != nil {
				t.Fatalf("step %d: Apply: %v", s, err)
			}
			if delta.RowsDirty > 2 {
				t.Errorf("step %d: %d of %d rows re-extracted, want at most 2", s, delta.RowsDirty, delta.RowsTotal)
			}
			dirty += delta.RowsDirty
			cur = nd
		}
		if dirty > 38 {
			t.Errorf("the chain re-extracted %d rows, want at most 38", dirty)
		}
		want, err := Extract(cur, opts)
		if err != nil {
			t.Fatalf("Extract: %v", err)
		}
		assertTablesEqual(t, st.Table(), want, "chain400")
	})
}

// TestStateApplyNearTouch PATCHes s of the near-touch scene (see
// nearTouchScene) from 5 units above d into the Eps band and back out.
// Each Apply must match a cold extraction, so the dirty-row query has to
// reach as far as the slack-grown distance filters.
func TestStateApplyNearTouch(t *testing.T) {
	for _, y := range nearTouchHeights {
		d, far := nearTouchScene(y, 5)
		_, near := nearTouchScene(y, 0)
		start := &dataset.Dataset{
			Reference: dataset.NewLayer("road").Add(dataset.Feature{ID: "d", Geometry: d}),
			Relevant:  []*dataset.Layer{dataset.NewLayer("river").Add(dataset.Feature{ID: "s", Geometry: far})},
		}
		for _, th := range nearTouchThresholds {
			t.Run(nearTouchCaseName(y, th), func(t *testing.T) {
				for _, farFrom := range []bool{false, true} {
					for _, noPrepare := range []bool{false, true} {
						opts := Options{Distance: true, Thresholds: th, IncludeFarFrom: farFrom, Index: RTreeIndex, NoPrepare: noPrepare}
						st, err := NewState(start, opts)
						if err != nil {
							t.Fatal(err)
						}
						cur := start
						for step, g := range []geom.Geometry{near, far} {
							nd, cs, err := cur.ApplyOps([]dataset.Op{{Action: dataset.OpUpdate, Layer: "river", ID: "s", WKT: g.WKT()}})
							if err != nil {
								t.Fatal(err)
							}
							if _, err := st.Apply(context.Background(), nd, cs); err != nil {
								t.Fatal(err)
							}
							want, err := Extract(nd, opts)
							if err != nil {
								t.Fatal(err)
							}
							assertTablesEqual(t, st.Table(), want, fmt.Sprintf("farFrom=%v noPrepare=%v step %d", farFrom, noPrepare, step))
							cur = nd
						}
					}
				}
			})
		}
	}
}

func TestStateApplyParallelism(t *testing.T) {
	d := sceneForState(t, 3)
	for _, par := range []int{1, 4} {
		opts := Options{Topological: true, Distance: true, Thresholds: qsr.DefaultThresholds(10), Index: RTreeIndex, Parallelism: par}
		st, err := NewState(d, opts)
		if err != nil {
			t.Fatalf("NewState(par=%d): %v", par, err)
		}
		layer := d.Relevant[1]
		nd, cs, err := d.ApplyOps([]dataset.Op{
			{Action: dataset.OpInsert, Layer: layer.Type, ID: "pp", WKT: "POINT (17 12)"},
		})
		if err != nil {
			t.Fatalf("ApplyOps: %v", err)
		}
		if _, err := st.Apply(context.Background(), nd, cs); err != nil {
			t.Fatalf("Apply(par=%d): %v", par, err)
		}
		want, err := Extract(nd, opts)
		if err != nil {
			t.Fatalf("Extract: %v", err)
		}
		assertTablesEqual(t, st.Table(), want, fmt.Sprintf("par=%d", par))
	}
}
