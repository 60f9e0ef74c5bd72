package dataset_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// serialDecode is the decoder the parallel one replaced: encoding/json,
// then each feature's WKT parsed by geom.ParseWKT in document order,
// stopping at the first that fails.
func serialDecode(data []byte) (*dataset.Dataset, error) {
	type jsonLayer struct {
		Type     string `json:"type"`
		Features []struct {
			ID    string                   `json:"id"`
			WKT   string                   `json:"wkt"`
			Attrs map[string]dataset.Value `json:"attrs"`
		} `json:"features"`
	}
	var doc struct {
		Reference       jsonLayer   `json:"reference"`
		Relevant        []jsonLayer `json:"relevant"`
		NonSpatialAttrs []string    `json:"nonSpatialAttrs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	layer := func(jl jsonLayer) (*dataset.Layer, error) {
		l := dataset.NewLayer(jl.Type)
		for _, jf := range jl.Features {
			g, err := geom.ParseWKT(jf.WKT)
			if err != nil {
				return nil, fmt.Errorf("dataset: layer %q feature %q: %w", jl.Type, jf.ID, err)
			}
			l.Add(dataset.Feature{ID: jf.ID, Geometry: g, Attrs: jf.Attrs})
		}
		return l, nil
	}
	ref, err := layer(doc.Reference)
	if err != nil {
		return nil, err
	}
	d := &dataset.Dataset{Reference: ref, NonSpatialAttrs: doc.NonSpatialAttrs}
	for _, jl := range doc.Relevant {
		l, err := layer(jl)
		if err != nil {
			return nil, err
		}
		d.Relevant = append(d.Relevant, l)
	}
	return d, nil
}

// withProcs runs fn with GOMAXPROCS set to procs, the width of the
// decode pool.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestReadJSONParallelDecodeIdentical decodes the four 28×28 cli-scene
// scenes, a planted co-location scene and Porto Alegre at GOMAXPROCS 1,
// 2, 3 and 8, which cut every layer into up to that many chunks. Each decode
// must be reflect.DeepEqual to the serial decode and write back the
// bytes it was read from.
func TestReadJSONParallelDecodeIdentical(t *testing.T) {
	scenes := map[string]*dataset.Dataset{"portoalegre": dataset.PortoAlegreScene()}
	for seed := int64(12); seed <= 15; seed++ {
		d, err := datagen.GenerateScene(datagen.DefaultScene(28, 28, seed))
		if err != nil {
			t.Fatal(err)
		}
		scenes[fmt.Sprintf("scene/28x28/seed=%d", seed)] = d
	}
	cfg := datagen.DefaultColocationScene(7)
	cfg.Clusters, cfg.Noise = 150, 60
	coloc, err := datagen.GenerateColocationScene(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scenes["colocation"] = coloc
	for name, d := range scenes {
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		body := buf.Bytes()
		want, err := serialDecode(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, procs := range []int{1, 2, 3, 8} {
			var got *dataset.Dataset
			withProcs(procs, func() { got, err = dataset.ReadJSON(bytes.NewReader(body)) })
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at GOMAXPROCS %d: decode differs from the serial decode", name, procs)
			}
			var out bytes.Buffer
			if err := got.WriteJSON(&out); err != nil || !bytes.Equal(out.Bytes(), body) {
				t.Errorf("%s at GOMAXPROCS %d: WriteJSON does not give back the input (%v)", name, procs, err)
			}
		}
	}
}

// badDoc builds a document of a 40-feature reference layer and two
// 40-feature relevant layers of points, with the features named in bad
// ("layer/index") given WKT that does not parse. With fallback, the
// first feature carries a null attribute, which sends the document to
// encoding/json.
func badDoc(bad map[string]string, fallback bool) []byte {
	var b strings.Builder
	layer := func(name string) {
		fmt.Fprintf(&b, `{"type":%q,"features":[`, name)
		for i := 0; i < 40; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			wkt := fmt.Sprintf("POINT (%d %d)", i, i)
			if w, ok := bad[fmt.Sprintf("%s/%d", name, i)]; ok {
				wkt = w
			}
			fmt.Fprintf(&b, `{"id":"%s%d","wkt":%q`, name, i, wkt)
			if fallback && i == 0 {
				b.WriteString(`,"attrs":{"n":null}`)
			}
			b.WriteByte('}')
		}
		b.WriteString("]}")
	}
	b.WriteString(`{"reference":`)
	layer("ref")
	b.WriteString(`,"relevant":[`)
	layer("a")
	b.WriteByte(',')
	layer("b")
	b.WriteString("]}")
	return []byte(b.String())
}

// TestReadJSONReportsFirstBadFeature puts bad WKT into two features in
// different layers or different chunks (GOMAXPROCS 4 cuts each layer
// into chunks of 10) and requires the error of the one that comes first
// in document order, word for word the serial decode's, on the canonical
// path and on the encoding/json fallback.
func TestReadJSONReportsFirstBadFeature(t *testing.T) {
	cases := []struct {
		name      string
		bad       map[string]string
		layer, id string
	}{
		{"reference before relevant", map[string]string{"ref/35": "POINT (1 x)", "a/2": "LINESTRING (0 0,"}, "ref", "ref35"},
		{"earlier relevant layer", map[string]string{"a/25": "POINT (1)", "b/1": "POLYGON ((0 0))x"}, "a", "a25"},
		{"two chunks of one layer", map[string]string{"b/31": "CIRCLE (0 0, 1)", "b/5": "POINT (1 2, 3 4)"}, "b", "b5"},
		{"one chunk", map[string]string{"a/13": "POINT (a b)", "a/12": ""}, "a", "a12"},
	}
	for _, tc := range cases {
		for _, fallback := range []bool{false, true} {
			doc := badDoc(tc.bad, fallback)
			if dataset.IsCanonical(doc) == fallback {
				t.Fatalf("%s (fallback %t): the document takes the other decode path", tc.name, fallback)
			}
			_, want := serialDecode(doc)
			var err error
			withProcs(4, func() { _, err = dataset.ReadJSON(bytes.NewReader(doc)) })
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("%s (fallback %t): error %v, want %v", tc.name, fallback, err, want)
				continue
			}
			if prefix := fmt.Sprintf("dataset: layer %q feature %q: geom: parsing WKT ", tc.layer, tc.id); !strings.HasPrefix(err.Error(), prefix) {
				t.Errorf("%s (fallback %t): %v does not start %q", tc.name, fallback, err, prefix)
			}
		}
	}

	// Unparsable but unescaped WKT in the first chunk, and WKT with an
	// escape (\u0050 is P) in the last: the escape sends the document to
	// encoding/json, because every WKT is checked before any is parsed,
	// and the first feature's error is reported.
	doc := bytes.Replace(badDoc(map[string]string{"ref/3": "POINT (1 x)", "b/35": "escaped"}, false),
		[]byte(`"escaped"`), []byte(`"\u0050OINT (35 35)"`), 1)
	if dataset.IsCanonical(doc) {
		t.Fatal("escaped WKT: the document takes the canonical path")
	}
	_, want := serialDecode(doc)
	var err error
	withProcs(4, func() { _, err = dataset.ReadJSON(bytes.NewReader(doc)) })
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("escaped WKT: error %v, want %v", err, want)
	} else if prefix := `dataset: layer "ref" feature "ref3": geom: parsing WKT `; !strings.HasPrefix(err.Error(), prefix) {
		t.Errorf("escaped WKT: %v does not start %q", err, prefix)
	}
}

// TestReadJSONAllocsIndependentOfSequences pins the decode's
// allocations: documents with the same features decode in the same
// number of allocations whether each feature holds one coordinate
// sequence per part or four, because every sequence, hole, line and
// polygon is a window of its chunk's arena.
func TestReadJSONAllocsIndependentOfSequences(t *testing.T) {
	doc := func(k int) []byte {
		repeat := func(part string) string { return strings.TrimSuffix(strings.Repeat(part+", ", k), ", ") }
		d := map[string]any{}
		layer := func(typ, wkt string) map[string]any {
			fs := make([]map[string]any, 30)
			for i := range fs {
				fs[i] = map[string]any{"id": fmt.Sprintf("%s%d", typ, i), "wkt": wkt}
			}
			return map[string]any{"type": typ, "features": fs}
		}
		d["reference"] = layer("district", "POLYGON ((0 0, 9 0, 9 9, 0 9, 0 0), "+repeat("(1 1, 2 1, 2 2, 1 1)")+")")
		d["relevant"] = []any{
			layer("blocks", "MULTIPOLYGON ("+repeat("((0 0, 4 0, 4 4, 0 0), (1 0.5, 3 0.5, 3 2.5, 1 0.5))")+")"),
			layer("streets", "MULTILINESTRING ("+repeat("(0 0, 1 1, 2 1)")+")"),
			layer("roads", "LINESTRING (0 0, 5 5)"),
			layer("schools", "POINT (3 3)"),
			layer("stops", "MULTIPOINT ("+repeat("(1 2)")+")"),
		}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := dataset.ReadJSON(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, four := allocs(doc(1)), allocs(doc(4)); one != four {
		t.Errorf("decode allocations: %v with one sequence per part, %v with four", one, four)
	}
}

// TestDecodeStrict pins the one strict-decode rule: exactly one
// document, whitespace around it, no unknown field.
func TestDecodeStrict(t *testing.T) {
	type doc struct {
		A int `json:"a"`
	}
	var d doc
	if err := dataset.DecodeStrict([]byte(" {\"a\":1}\n\t"), &d); err != nil || d.A != 1 {
		t.Fatalf("DecodeStrict = %v, %+v", err, d)
	}
	for _, bad := range []string{
		`{"a":1} trailing`,
		`{"a":1}{"a":2}`,
		`{"a":1} 2`,
		`{"a":1,"b":2}`,
		`{"a":1`,
		`{"a":"x"}`,
		``,
	} {
		if err := dataset.DecodeStrict([]byte(bad), &doc{}); err == nil {
			t.Errorf("DecodeStrict(%q) accepted", bad)
		}
	}
}
