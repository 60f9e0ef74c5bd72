package dataset

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestLayerBasics(t *testing.T) {
	l := NewLayer("slum")
	l.AddGeometry(geom.Rect(0, 0, 2, 2)).AddGeometry(geom.Rect(4, 4, 6, 6))
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Features[0].ID != "slum0" || l.Features[1].ID != "slum1" {
		t.Errorf("auto IDs = %q, %q", l.Features[0].ID, l.Features[1].ID)
	}
	env := l.Envelope()
	if env.MinX != 0 || env.MaxX != 6 {
		t.Errorf("layer envelope = %+v", env)
	}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLayerValidateErrors(t *testing.T) {
	l := NewLayer("bad")
	l.Add(Feature{ID: "f1"})
	if err := l.Validate(); err == nil || !strings.Contains(err.Error(), "no geometry") {
		t.Errorf("missing geometry: %v", err)
	}
	l = NewLayer("bad2")
	l.Add(Feature{ID: "f1", Geometry: geom.Poly(geom.Pt(0, 0), geom.Pt(1, 1))})
	if err := l.Validate(); err == nil {
		t.Error("invalid geometry should fail validation")
	}
}

func TestFeatureAttrs(t *testing.T) {
	var f Feature
	if _, ok := f.Attr("x"); ok {
		t.Error("empty feature has no attrs")
	}
	f.SetAttr("murderRate", "high")
	v, ok := f.Attr("murderRate")
	if !ok || v != "high" {
		t.Errorf("Attr = %v, %v", v, ok)
	}
}

func TestDatasetValidate(t *testing.T) {
	d := &Dataset{}
	if err := d.Validate(); err == nil {
		t.Error("dataset without reference must fail")
	}
	ref := NewLayer("district")
	ref.AddGeometry(geom.Rect(0, 0, 10, 10))
	d = &Dataset{Reference: ref, Relevant: []*Layer{NewLayer("slum"), NewLayer("slum")}}
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate layer type") {
		t.Errorf("duplicate layer: %v", err)
	}
	d = &Dataset{Reference: ref, Relevant: []*Layer{NewLayer("slum"), NewLayer("school")}}
	if err := d.Validate(); err != nil {
		t.Errorf("valid dataset: %v", err)
	}
	if got := d.RelevantTypes(); len(got) != 2 || got[0] != "slum" || got[1] != "school" {
		t.Errorf("RelevantTypes = %v", got)
	}
}

func TestNormalizeItems(t *testing.T) {
	got := NormalizeItems([]string{"b", "a", "b", "c", "a"})
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("NormalizeItems = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NormalizeItems = %v, want %v", got, want)
		}
	}
	if len(NormalizeItems(nil)) != 0 {
		t.Error("nil input should normalise to empty")
	}
}

func TestTableBasics(t *testing.T) {
	table := NewTable([]Transaction{
		{RefID: "a", Items: []string{"y", "x", "x"}},
		{RefID: "b", Items: []string{"x", "z"}},
		{RefID: "c", Items: []string{"z"}},
	})
	if table.Len() != 3 {
		t.Fatalf("Len = %d", table.Len())
	}
	items := table.Items()
	if len(items) != 3 || items[0] != "x" || items[2] != "z" {
		t.Errorf("Items = %v", items)
	}
	if got := table.SupportCount([]string{"x"}); got != 2 {
		t.Errorf("support(x) = %d", got)
	}
	if got := table.SupportCount([]string{"x", "z"}); got != 1 {
		t.Errorf("support(x,z) = %d", got)
	}
	if got := table.SupportCount([]string{"nope"}); got != 0 {
		t.Errorf("support(nope) = %d", got)
	}
	if got := table.SupportCount(nil); got != 3 {
		t.Errorf("support(empty) = %d, want all rows", got)
	}
}

func TestPortoAlegreTableMatchesPaper(t *testing.T) {
	table := PortoAlegreTable()
	if table.Len() != 6 {
		t.Fatalf("rows = %d, want 6", table.Len())
	}
	// The dataset has 9 distinct predicates: 2 non-spatial and 7 spatial,
	// as the paper states in Section 2.
	items := table.Items()
	distinct := map[string]bool{}
	nonSpatial := 0
	for _, it := range items {
		distinct[it] = true
		if strings.Contains(it, "=") {
			nonSpatial++
		}
	}
	// murderRate and theftRate each have two values -> 4 "attr=value"
	// items, but the paper counts predicates: 2 non-spatial attributes
	// and 7 spatial predicates.
	spatial := map[string]bool{}
	attrs := map[string]bool{}
	for it := range distinct {
		if i := strings.IndexByte(it, '='); i >= 0 {
			attrs[it[:i]] = true
		} else {
			spatial[it] = true
		}
	}
	if len(attrs) != 2 {
		t.Errorf("non-spatial attributes = %d, want 2", len(attrs))
	}
	if len(spatial) != 7 {
		t.Errorf("spatial predicates = %d, want 7: %v", len(spatial), spatial)
	}
	// Row sanity: Nonoai has all four slum relations.
	for _, tx := range table.Transactions {
		if tx.RefID != "Nonoai" {
			continue
		}
		for _, want := range []string{"contains_slum", "touches_slum", "overlaps_slum", "covers_slum"} {
			if table.SupportCount([]string{want}) == 0 {
				t.Errorf("missing %s", want)
			}
			found := false
			for _, it := range tx.Items {
				if it == want {
					found = true
				}
			}
			if !found {
				t.Errorf("Nonoai missing %s", want)
			}
		}
	}
	// Frequent-itemset preconditions the paper derives from this table.
	if got := table.SupportCount([]string{"contains_slum"}); got != 6 {
		t.Errorf("support(contains_slum) = %d, want 6", got)
	}
	if got := table.SupportCount([]string{"murderRate=high"}); got != 4 {
		t.Errorf("support(murderRate=high) = %d, want 4", got)
	}
	if got := table.SupportCount([]string{"contains_policeCenter"}); got != 2 {
		t.Errorf("support(contains_policeCenter) = %d, want 2", got)
	}
}

func TestPortoAlegreSceneValid(t *testing.T) {
	scene := PortoAlegreScene()
	if err := scene.Validate(); err != nil {
		t.Fatalf("scene invalid: %v", err)
	}
	if scene.Reference.Len() != 6 {
		t.Errorf("districts = %d", scene.Reference.Len())
	}
	// Slums: Teresopolis 2, Vila Nova 2, Cavalhada 3, Cristal 3,
	// Nonoai 4, Camaqua 2 -> 16 total.
	if got := scene.Relevant[0].Len(); got != 16 {
		t.Errorf("slums = %d, want 16", got)
	}
	// The paper's Nonoai slum instances exist.
	ids := map[string]bool{}
	for _, f := range scene.Relevant[0].Features {
		ids[f.ID] = true
	}
	for _, want := range []string{"slum159", "slum174", "slum180", "slum183"} {
		if !ids[want] {
			t.Errorf("missing paper slum instance %s", want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	scene := PortoAlegreScene()
	var buf bytes.Buffer
	if err := scene.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Reference.Type != "district" || back.Reference.Len() != 6 {
		t.Errorf("reference layer mangled: %s/%d", back.Reference.Type, back.Reference.Len())
	}
	if len(back.Relevant) != 3 {
		t.Fatalf("relevant layers = %d", len(back.Relevant))
	}
	if back.Relevant[0].Len() != scene.Relevant[0].Len() {
		t.Errorf("slum count changed: %d -> %d", scene.Relevant[0].Len(), back.Relevant[0].Len())
	}
	// Attribute survives.
	if v, ok := back.Reference.Features[0].Attr("murderRate"); !ok || v != "high" {
		t.Errorf("attr lost: %v %v", v, ok)
	}
	// Geometry survives.
	if back.Reference.Features[0].Geometry.Envelope() != scene.Reference.Features[0].Geometry.Envelope() {
		t.Error("geometry changed in round trip")
	}
	if len(back.NonSpatialAttrs) != 2 {
		t.Errorf("nonSpatialAttrs = %v", back.NonSpatialAttrs)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Error("bad JSON should fail")
	}
	if _, err := ReadJSON(strings.NewReader(
		`{"reference": {"type": "d", "features": [{"id": "x", "wkt": "JUNK"}]}}`)); err == nil {
		t.Error("bad WKT should fail")
	}
	// A scene is one document: bytes after it, or a second document, fail
	// on the canonical path and the encoding/json fallback alike; white
	// space after it does not.
	var buf bytes.Buffer
	if err := PortoAlegreScene().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	canonical, fallback := buf.String(), canonicalFallbacks["unknown key"]
	for name, in := range map[string]string{
		"canonical + garbage":         canonical + " trailing",
		"canonical + second document": canonical + canonical,
		"fallback + garbage":          fallback + " trailing",
		"fallback + second document":  fallback + "{}",
	} {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
	for _, in := range []string{canonical + " \n\t\r\n", fallback + "\n "} {
		if _, err := ReadJSON(strings.NewReader(in)); err != nil {
			t.Errorf("white space after the document: %v", err)
		}
	}
}

func TestDecodeCanonicalTakesWriteJSONOutput(t *testing.T) {
	for _, d := range []*Dataset{PortoAlegreScene(), Table2ReconstructionScene()} {
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got, ok := decodeCanonical(buf.Bytes())
		if !ok {
			t.Fatalf("one-pass decode rejected WriteJSON output:\n%s", buf.Bytes())
		}
		var want jsonDataset
		if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("one-pass decode differs from encoding/json:\n got %#v\nwant %#v", got, want)
		}
	}
}

func TestDecodeCanonicalFallsBack(t *testing.T) {
	for name, in := range canonicalFallbacks {
		if _, ok := decodeCanonical([]byte(in)); ok {
			t.Errorf("%s: one-pass decode accepted %q", name, in)
		}
	}
	// encoding/json merges a repeated key into the value decoded so far:
	// the second "features" array reuses the first element, keeping its ID.
	d, err := ReadJSON(strings.NewReader(canonicalFallbacks["duplicate merge"]))
	if err != nil {
		t.Fatal(err)
	}
	if f := d.Reference.Features; len(f) != 1 || f[0].ID != "a" || f[0].Geometry.WKT() != "POINT (2 2)" {
		t.Errorf("duplicate-key merge = %+v, want one feature a at POINT (2 2)", f)
	}
}

func TestWriteJSONErrorLeavesWriterUntouched(t *testing.T) {
	d := PortoAlegreScene()
	d.Relevant[0].Features[0].SetAttr("bad", math.NaN())
	buf := bytes.NewBufferString("kept")
	if err := d.WriteJSON(buf); err == nil || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Errorf("WriteJSON error = %v, want encoding/json's unsupported value", err)
	}
	if buf.String() != "kept" {
		t.Errorf("failed WriteJSON wrote %q", buf.String())
	}
}

func TestSaveLoadJSON(t *testing.T) {
	scene := PortoAlegreScene()
	path := t.TempDir() + "/scene.json"
	if err := scene.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Reference.Len() != 6 {
		t.Errorf("loaded districts = %d", back.Reference.Len())
	}
	if _, err := LoadJSON(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file should fail")
	}
}

func TestWriteTableCSV(t *testing.T) {
	table := NewTable([]Transaction{{RefID: "a", Items: []string{"x", "y"}}})
	var buf bytes.Buffer
	if err := table.WriteTableCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,x,y\n" {
		t.Errorf("CSV = %q", got)
	}
}
