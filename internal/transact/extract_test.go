package transact

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/qsr"
)

// TestPortoAlegreSceneReproducesTable1 is the pipeline's golden test: the
// crafted geometric scene must extract to exactly the paper's Table 1.
func TestPortoAlegreSceneReproducesTable1(t *testing.T) {
	for _, idx := range []IndexKind{RTreeIndex, NoIndex} {
		opts := DefaultOptions()
		opts.Index = idx
		got, err := Extract(dataset.PortoAlegreScene(), opts)
		if err != nil {
			t.Fatalf("index %d: %v", idx, err)
		}
		want := dataset.PortoAlegreTable()
		if got.Len() != want.Len() {
			t.Fatalf("index %d: rows = %d, want %d", idx, got.Len(), want.Len())
		}
		for i := range want.Transactions {
			w, g := want.Transactions[i], got.Transactions[i]
			if w.RefID != g.RefID {
				t.Errorf("index %d row %d: id %q, want %q", idx, i, g.RefID, w.RefID)
				continue
			}
			if !reflect.DeepEqual(w.Items, g.Items) {
				t.Errorf("index %d %s:\n  got  %v\n  want %v", idx, w.RefID, g.Items, w.Items)
			}
		}
	}
}

// smallDataset builds a two-district scene exercising every relation
// family.
func smallDataset() *dataset.Dataset {
	districts := dataset.NewLayer("district")
	districts.Add(dataset.Feature{
		ID: "D1", Geometry: geom.Rect(0, 0, 10, 10),
		Attrs: map[string]dataset.Value{"rate": "high", "pop": 1000.0},
	})
	districts.Add(dataset.Feature{
		ID: "D2", Geometry: geom.Rect(20, 0, 30, 10),
		Attrs: map[string]dataset.Value{"rate": "low", "pop": 200.0},
	})
	rivers := dataset.NewLayer("river")
	rivers.AddGeometry(geom.Line(geom.Pt(-5, 5), geom.Pt(15, 5))) // crosses D1
	schools := dataset.NewLayer("school")
	schools.AddGeometry(geom.Pt(5, 5))  // in D1, far-ish from D2
	schools.AddGeometry(geom.Pt(25, 5)) // in D2
	return &dataset.Dataset{
		Reference:       districts,
		Relevant:        []*dataset.Layer{rivers, schools},
		NonSpatialAttrs: []string{"rate", "pop"},
	}
}

func TestExtractTopological(t *testing.T) {
	table, err := Extract(smallDataset(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d1 := table.Transactions[0]
	if !hasItem(d1.Items, "crosses_river") {
		t.Errorf("D1 items = %v, want crosses_river", d1.Items)
	}
	if !hasItem(d1.Items, "contains_school") {
		t.Errorf("D1 items = %v, want contains_school", d1.Items)
	}
	if !hasItem(d1.Items, "rate=high") {
		t.Errorf("D1 items = %v, want rate=high", d1.Items)
	}
	// Disjoint suppressed by default: D2 has no river predicates.
	d2 := table.Transactions[1]
	for _, it := range d2.Items {
		if strings.Contains(it, "river") {
			t.Errorf("D2 should have no river predicate, got %v", it)
		}
	}
}

func TestExtractIncludeDisjoint(t *testing.T) {
	opts := DefaultOptions()
	opts.IncludeDisjoint = true
	table, err := Extract(smallDataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	d2 := table.Transactions[1]
	if !hasItem(d2.Items, "disjoint_river") {
		t.Errorf("D2 items = %v, want disjoint_river", d2.Items)
	}
}

func TestExtractDistance(t *testing.T) {
	opts := Options{
		Distance:       true,
		Thresholds:     qsr.DistanceThresholds{VeryCloseMax: 1, CloseMax: 12},
		IncludeFarFrom: true,
		Index:          RTreeIndex,
	}
	table, err := Extract(smallDataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	d1 := table.Transactions[0]
	// D1 contains school0 (distance 0 -> veryCloseTo) and is 15 from
	// school1 (-> farFrom): the paper's police-center situation where one
	// reference object gets both relations for one feature type.
	if !hasItem(d1.Items, "veryCloseTo_school") {
		t.Errorf("D1 items = %v, want veryCloseTo_school", d1.Items)
	}
	if !hasItem(d1.Items, "farFrom_school") {
		t.Errorf("D1 items = %v, want farFrom_school", d1.Items)
	}
	// Without IncludeFarFrom the far predicate disappears.
	opts.IncludeFarFrom = false
	table, err = Extract(smallDataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if hasItem(table.Transactions[0].Items, "farFrom_school") {
		t.Error("farFrom_school present despite IncludeFarFrom=false")
	}
}

func TestExtractDirectional(t *testing.T) {
	opts := Options{Directional: true, Index: RTreeIndex}
	table, err := Extract(smallDataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	d1 := table.Transactions[0]
	// school1 at (25,5) is east of D1's centroid (5,5).
	if !hasItem(d1.Items, "eastOf_school") {
		t.Errorf("D1 items = %v, want eastOf_school", d1.Items)
	}
	d2 := table.Transactions[1]
	if !hasItem(d2.Items, "westOf_school") {
		t.Errorf("D2 items = %v, want westOf_school", d2.Items)
	}
}

func TestExtractInstanceGranularity(t *testing.T) {
	opts := DefaultOptions()
	opts.Granularity = InstanceLevel
	table, err := Extract(smallDataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	d1 := table.Transactions[0]
	if !hasItem(d1.Items, "contains_school0") {
		t.Errorf("D1 items = %v, want contains_school0", d1.Items)
	}
	if hasItem(d1.Items, "contains_school") {
		t.Error("type-level predicate leaked into instance granularity")
	}
}

func TestExtractNumericDiscretisation(t *testing.T) {
	table, err := Extract(smallDataset(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// pop 1000 vs 200 under tercile equal-frequency: distinct labels.
	var labels []string
	for _, tx := range table.Transactions {
		for _, it := range tx.Items {
			if strings.HasPrefix(it, "pop=") {
				labels = append(labels, it)
			}
		}
	}
	if len(labels) != 2 || labels[0] == labels[1] {
		t.Errorf("pop labels = %v, want two distinct", labels)
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := Extract(&dataset.Dataset{}, DefaultOptions()); err == nil {
		t.Error("missing reference layer should fail")
	}
	if _, err := Extract(smallDataset(), Options{}); err == nil {
		t.Error("no relation family should fail")
	}
	opts := DefaultOptions()
	opts.Index = IndexKind(99)
	if _, err := Extract(smallDataset(), opts); err == nil {
		t.Error("unknown index kind should fail")
	}
}

func TestExtractMissingAttrSkipped(t *testing.T) {
	d := smallDataset()
	d.NonSpatialAttrs = append(d.NonSpatialAttrs, "absent")
	table, err := Extract(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range table.Transactions {
		for _, it := range tx.Items {
			if strings.HasPrefix(it, "absent") {
				t.Errorf("absent attribute produced item %q", it)
			}
		}
	}
}

func hasItem(items []string, want string) bool {
	for _, it := range items {
		if it == want {
			return true
		}
	}
	return false
}

func TestExtractIncludeIsA(t *testing.T) {
	opts := DefaultOptions()
	opts.IncludeIsA = true
	table, err := Extract(smallDataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range table.Transactions {
		if !hasItem(tx.Items, "is_a_district") {
			t.Errorf("%s missing is_a_district item: %v", tx.RefID, tx.Items)
		}
	}
	// Off by default.
	table, err = Extract(smallDataset(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if hasItem(table.Transactions[0].Items, "is_a_district") {
		t.Error("is_a item present without IncludeIsA")
	}
}

// TestTable2SceneReproducesReconstruction: the second golden pipeline
// test — the Table 2 scene extracts to exactly the reconstruction table.
func TestTable2SceneReproducesReconstruction(t *testing.T) {
	got, err := Extract(dataset.Table2ReconstructionScene(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := dataset.Table2Reconstruction()
	if got.Len() != want.Len() {
		t.Fatalf("rows = %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Transactions {
		w, g := want.Transactions[i], got.Transactions[i]
		if w.RefID != g.RefID || !reflect.DeepEqual(w.Items, g.Items) {
			t.Errorf("%s:\n  got  %v\n  want %v", w.RefID, g.Items, w.Items)
		}
	}
}

// TestExtractRejectsBadThresholds: a negative CloseMax, or a VeryCloseMax
// above CloseMax, made the candidate gather and the farFrom short-cut
// disagree with qsr.DistanceRelation and silently lost or mislabelled
// predicates. Extraction now refuses them, with or without farFrom.
func TestExtractRejectsBadThresholds(t *testing.T) {
	districts := dataset.NewLayer("district")
	districts.Add(dataset.Feature{ID: "d", Geometry: geom.Rect(0, 0, 10, 10)})
	slums := dataset.NewLayer("slum")
	slums.Add(dataset.Feature{ID: "s1", Geometry: geom.Rect(2, 2, 4, 4)})   // inside d
	slums.Add(dataset.Feature{ID: "s2", Geometry: geom.Rect(13, 0, 14, 1)}) // 3 east of d
	d := &dataset.Dataset{Reference: districts, Relevant: []*dataset.Layer{slums}}
	for _, th := range []qsr.DistanceThresholds{{VeryCloseMax: 1, CloseMax: -1}, {VeryCloseMax: 5, CloseMax: 2}} {
		for _, farFrom := range []bool{false, true} {
			opts := Options{Topological: true, Distance: true, Thresholds: th, IncludeFarFrom: farFrom, Index: RTreeIndex}
			if table, err := Extract(d, opts); err == nil {
				t.Errorf("thresholds %+v, farFrom %v: extracted %v, want an error", th, farFrom, table.Transactions)
			}
		}
	}
	// The same scene under valid thresholds: s1 is contained and very
	// close, s2 close.
	opts := Options{Topological: true, Distance: true, Thresholds: qsr.DistanceThresholds{VeryCloseMax: 1, CloseMax: 5}, Index: RTreeIndex}
	table, err := Extract(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"contains_slum", "veryCloseTo_slum", "closeTo_slum"} {
		if !hasItem(table.Transactions[0].Items, want) {
			t.Errorf("items = %v, want %s", table.Transactions[0].Items, want)
		}
	}
}
