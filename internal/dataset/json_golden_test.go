package dataset_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// The SHA-256 of WriteJSON's bytes is the content address of every
// upload, PATCH successor, persisted dataset file and peer replica, so
// those bytes may never drift. The digests below were recorded with the
// encoding/json-based writer the one-pass codec replaced.
var writeJSONGolden = map[string]string{
	"hand/empty-reference":                  "83674d286879fe5d8b212fd1d7fb3076aaa51911237ddfb5f5c32d2158d5d5c5",
	"hand/mixed":                            "0d88d0ff21f883b40c9eb1808bca38d068b476036e170b8d5c5dfa7abb1ccf41",
	"hand/no-relevant":                      "c5ef5548dbe4db5a60755a0f03dd9cb5508811e1a4e05ac6c77098d429f055ec",
	"portoalegre":                           "fd52ff60a907f3b98ba2d7143ba5f2e51798677d68df482e98b4ef8b90b7d149",
	"scene/1x1/seed=1/irregular=false":      "2f76ea49fc655edfbeebb693b615a370da1ab37abfbf0655391e29c2b5da42fc",
	"scene/1x1/seed=1/irregular=true":       "2f76ea49fc655edfbeebb693b615a370da1ab37abfbf0655391e29c2b5da42fc",
	"scene/1x1/seed=2007/irregular=false":   "fd260b1c76be033579775b3cc67cefaee870eb1d7c44744011d6cd7e83bb3522",
	"scene/1x1/seed=2007/irregular=true":    "00a9acffb83ff35e3e5d0e99d11ca02213a609a1bc0f1e4c6b334deafa4634a9",
	"scene/1x1/seed=7/irregular=false":      "2458bee32ac7e03ed9ed1862a70f8d0630dbce0c9055b7c3e5f733de0f12df7f",
	"scene/1x1/seed=7/irregular=true":       "2458bee32ac7e03ed9ed1862a70f8d0630dbce0c9055b7c3e5f733de0f12df7f",
	"scene/20x20/seed=1/irregular=false":    "ff6cda34285c14a9aa2321bb788c302a4b4f9981f8ad2ffc2f6bec4111016c64",
	"scene/20x20/seed=1/irregular=true":     "a8275cd4d19967cf4f22201fac99b52bbe59c85c2e9620313681389694cc3bc5",
	"scene/20x20/seed=2007/irregular=false": "fc0ca9f20498883d346568401e4370a6b7cdb158750f2e1bc9a356f5611525d2",
	"scene/20x20/seed=2007/irregular=true":  "b5823d5df687c67865f08d142a53cb6b5b7852048b8703bf20db46d9848da96a",
	"scene/20x20/seed=7/irregular=false":    "2d9321988c9b4e233bed781a93dc6786f22233e574c39e49d6b9ba0168e32702",
	"scene/20x20/seed=7/irregular=true":     "f9d9c6fa7c3126fc3a4c5a4a603b66c4c4feee999b8188f262c0d43844b88cb0",
	"scene/3x3/seed=1/irregular=false":      "78ad962fc1d1b2981b206ff01e11b903cd9efca8c5be861f0d8b0c8a2c2c2638",
	"scene/3x3/seed=1/irregular=true":       "1337f470d40354c00508225f0672c0b34a5a5ef7fdac63e1e60d7e331c73440a",
	"scene/3x3/seed=2007/irregular=false":   "64ae74112a9c05a71f91ce93d091f12721d0de2dededcf41672b720a4659be06",
	"scene/3x3/seed=2007/irregular=true":    "6ebc5c1e62aee6b0e5bcb3f4bb2acbbcf84eba4d62c62423ccd1834826478fae",
	"scene/3x3/seed=7/irregular=false":      "2c2928218d13c200cb6e3336a9d91013d75596d8fa4f218d353a6c330a27c208",
	"scene/3x3/seed=7/irregular=true":       "b5b93c6dc91030d94233622576652f8230e20f20028c06ae37376122729df7e3",
	"scene/7x7/seed=1/irregular=false":      "ebc6ef5d9b608a0326fe8152de070ed45ea624a6284d25731e9518853d0a601a",
	"scene/7x7/seed=1/irregular=true":       "b8eb73bf6da6e4968ac15b898611f1312cb5f3d9abb2b53214c33fdeebf314a9",
	"scene/7x7/seed=2007/irregular=false":   "fc7d7c0013141dd9435a0e32d6721e8c94e12b938131e27b380d16b91080c3c1",
	"scene/7x7/seed=2007/irregular=true":    "0c0df9c934f3d132aee4bf49ed029ccd9debf1612c7704b960e181ce52a1273d",
	"scene/7x7/seed=7/irregular=false":      "4719d2fd9c53231df00f2695553d14079bb51a4886f97d0ae361751ae76b2489",
	"scene/7x7/seed=7/irregular=true":       "961aca92565fbcd376c9de79b4b33e0af3b709a65ff1622dedfdca407584df6f",
}

// oddGeometry is a Geometry from outside package geom: WriteJSON must
// fall back to its own WKT method and escape whatever that returns.
type oddGeometry struct{ geom.Point }

func (oddGeometry) WKT() string { return "ODD <\"a\" & \\b>\u2028" }

// handBuiltScenes covers what generated scenes never produce: every
// geometry type with its EMPTY form, holes, nil and foreign geometries,
// empty layers, and IDs, types and attributes that need JSON escaping.
func handBuiltScenes() map[string]*dataset.Dataset {
	shell := geom.Ring{Coords: []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}}
	hole := geom.Ring{Coords: []geom.Point{geom.Pt(2, 2), geom.Pt(4, 2), geom.Pt(4, 4)}}
	holed := geom.Polygon{Shell: shell, Holes: []geom.Ring{hole, {Coords: []geom.Point{geom.Pt(6, 6), geom.Pt(8, 6), geom.Pt(8, 8.5)}}}}
	ref := dataset.NewLayer("district")
	ref.Add(dataset.Feature{ID: "plain", Geometry: geom.Rect(0, 0, 1, 1), Attrs: map[string]dataset.Value{
		"integral": 3.0,
		"big":      1e21,
		"tiny":     1e-7,
		"negzero":  math.Copysign(0, -1),
		"frac":     -0.125,
		"int":      42,
		"yes":      true,
		"no":       false,
		"nothing":  nil,
		"html":     `<a href="x">&'\</a>`,
		"lsep":     "line\u2028para\u2029end",
		"badutf8":  "ok\xff\xfe",
		"ctrl":     "tab\there\x01",
		"unicode":  "São Paulo",
		"<key>":    "escaped key",
		"nested":   map[string]dataset.Value{"list": []dataset.Value{1.5, "two", nil, []dataset.Value{}}, "empty": map[string]dataset.Value{}},
	}})
	ref.Add(dataset.Feature{ID: "needs \"quotes\" & <tags>", Geometry: holed, Attrs: map[string]dataset.Value{"murderRate": "high"}})
	ref.Add(dataset.Feature{ID: "café\u2028", Geometry: nil})
	ref.Add(dataset.Feature{ID: "back\\slash\n", Geometry: geom.Polygon{}, Attrs: map[string]dataset.Value{}})
	ref.Add(dataset.Feature{ID: "", Geometry: oddGeometry{geom.Pt(1, 1)}})

	geoms := dataset.NewLayer("every type")
	for i, g := range []geom.Geometry{
		geom.Pt(1, 2),
		geom.Pt(-1.5, 1e21),
		geom.Pt(math.Copysign(0, -1), 1e-7),
		geom.Pt(math.NaN(), math.Inf(1)),
		geom.Pt(math.Inf(-1), 123456789.123456789),
		geom.MultiPoint{},
		geom.MultiPoint{Points: []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)}},
		geom.LineString{},
		geom.Line(geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 0.1)),
		geom.MultiLineString{},
		geom.MultiLineString{Lines: []geom.LineString{geom.Line(geom.Pt(0, 0), geom.Pt(1, 0)), {}, geom.Line(geom.Pt(0, 1), geom.Pt(2, 2))}},
		geom.Polygon{},
		geom.Rect(0, 0, 4, 4),
		holed,
		geom.Polygon{Shell: shell, Holes: []geom.Ring{{}}},
		geom.MultiPolygon{},
		geom.MultiPolygon{Polygons: []geom.Polygon{geom.Rect(0, 0, 1, 1), {}, holed}},
	} {
		geoms.Add(dataset.Feature{ID: fmt.Sprintf("g%d", i), Geometry: g})
	}
	tagged := dataset.NewLayer("<type> & \"quoted\"")
	tagged.Add(dataset.Feature{ID: "t0", Geometry: geom.Pt(5, 5), Attrs: map[string]dataset.Value{"k": "v"}})

	return map[string]*dataset.Dataset{
		"hand/mixed": {
			Reference:       ref,
			Relevant:        []*dataset.Layer{geoms, dataset.NewLayer("empty"), tagged},
			NonSpatialAttrs: []string{"murderRate", "integral", "needs<escape>", "naïve"},
		},
		"hand/no-relevant": {
			Reference:       ref,
			NonSpatialAttrs: []string{},
		},
		"hand/empty-reference": {
			Reference: dataset.NewLayer(""),
			Relevant:  []*dataset.Layer{},
		},
	}
}

func goldenScenes(t *testing.T) map[string]*dataset.Dataset {
	t.Helper()
	scenes := handBuiltScenes()
	scenes["portoalegre"] = dataset.PortoAlegreScene()
	for _, grid := range []int{1, 3, 7, 20} {
		for _, seed := range []int64{1, 7, 2007} {
			for _, irregular := range []bool{false, true} {
				cfg := datagen.DefaultScene(grid, grid, seed)
				cfg.IrregularPolygons = irregular
				d, err := datagen.GenerateScene(cfg)
				if err != nil {
					t.Fatal(err)
				}
				scenes[fmt.Sprintf("scene/%dx%d/seed=%d/irregular=%t", grid, grid, seed, irregular)] = d
			}
		}
	}
	return scenes
}

func TestWriteJSONGoldenDigests(t *testing.T) {
	scenes := goldenScenes(t)
	for name, d := range scenes {
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		sum := sha256.Sum256(buf.Bytes())
		if got, want := hex.EncodeToString(sum[:]), writeJSONGolden[name]; got != want {
			t.Errorf("%q: %q, // was %q", name, got, want)
		}
	}
	if len(writeJSONGolden) != len(scenes) {
		t.Errorf("%d golden digests for %d scenes", len(writeJSONGolden), len(scenes))
	}
}
