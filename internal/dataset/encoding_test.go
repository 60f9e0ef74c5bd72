package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
)

// attrPalette holds the attrs maps successor batches set: removal (an
// empty map), values on the direct path that need escaping or exponent
// notation, and a nested value, which goes through MarshalIndent.
var attrPalette = []map[string]Value{
	{},
	{"crimeRate": "high"},
	{"html": `<a href="x">&</a>`, "big": 1e21, "tiny": 1e-7, "negzero": math.Copysign(0, -1)},
	{"int": 42, "yes": true, "no": false, "nothing": nil, "<key>": "v"},
	{"nested": map[string]Value{"list": []Value{1.5, "two", nil}}},
	{"lsep": "a\u2028b", "badutf8": "ok\xff", "frac": -0.125},
}

// successorScene is the scene every successor chain starts from: the
// reference layer, relevant layers with and without features, a layer
// type and IDs that need escaping, and attrs on both paths.
func successorScene() *Dataset {
	ref := NewLayer("district")
	for i := 0; i < 4; i++ {
		ref.Add(Feature{ID: fmt.Sprintf("d%d", i), Geometry: geom.Rect(float64(i), 0, float64(i+1), 1), Attrs: attrPalette[i%len(attrPalette)]})
	}
	slum := NewLayer("slum")
	for i := 0; i < 3; i++ {
		slum.Add(Feature{ID: fmt.Sprintf("s%d", i), Geometry: geom.Rect(float64(i)+0.25, 0.25, float64(i)+0.5, 0.5)})
	}
	school := NewLayer("school")
	school.Add(Feature{ID: "sc0", Geometry: geom.Pt(0.5, 0.5), Attrs: attrPalette[4]})
	school.Add(Feature{ID: "sc1", Geometry: geom.Pt(2.5, 0.5)})
	tagged := NewLayer("<type> & \"quoted\"")
	tagged.Add(Feature{ID: "needs \"quotes\" & <tags>", Geometry: geom.Line(geom.Pt(0, 0), geom.Pt(1, 1)), Attrs: attrPalette[5]})
	return &Dataset{
		Reference:       ref,
		Relevant:        []*Layer{slum, NewLayer("empty"), school, tagged},
		NonSpatialAttrs: []string{"crimeRate", "needs<escape>"},
	}
}

// opScript turns fuzz bytes into successor batches; past its end it
// reads zeros.
type opScript struct {
	data []byte
	pos  int
}

func (s *opScript) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return int(s.data[s.pos-1])
}

// Op kinds a successor batch draws from.
const (
	kindInsert = iota
	kindUpdateWKT
	kindUpdateAttrs
	kindUpdateBoth
	kindDelete
	kindReinsert // delete, then insert the same ID
	kindEmpty    // delete every feature of the layer (the reference keeps one)
	kindTransient
	numKinds
)

// successorBatch draws one batch of 1 to 4 op kinds against d. It tracks
// which IDs each layer still holds, so every batch applies; fresh
// numbers new IDs across the whole chain.
func successorBatch(s *opScript, d *Dataset, fresh *int) []Op {
	layers := append([]*Layer{d.Reference}, d.Relevant...)
	live := make([][]string, len(layers))
	for i, l := range layers {
		for _, f := range l.Features {
			live[i] = append(live[i], f.ID)
		}
	}
	var ops []Op
	for n := 1 + s.next()%4; n > 0; n-- {
		li := s.next() % len(layers)
		typ, kind := layers[li].Type, s.next()%numKinds
		wkt := func() string {
			x, h := s.next(), s.next()
			return fmt.Sprintf("POLYGON ((%d 0, %d 0, %d %d.5, %d 0))", x, x+1, x, h, x)
		}
		newID := func() string { *fresh++; return fmt.Sprintf("n%d", *fresh) }
		if kind == kindInsert || kind == kindTransient || len(live[li]) == 0 {
			id := newID()
			ops = append(ops, Op{Action: OpInsert, Layer: typ, ID: id, WKT: wkt(), Attrs: attrPalette[s.next()%len(attrPalette)]})
			if kind == kindTransient {
				ops = append(ops, Op{Action: OpDelete, Layer: typ, ID: id})
			} else {
				live[li] = append(live[li], id)
			}
			continue
		}
		at := s.next() % len(live[li])
		id := live[li][at]
		switch kind {
		case kindUpdateWKT:
			ops = append(ops, Op{Action: OpUpdate, Layer: typ, ID: id, WKT: wkt()})
		case kindUpdateAttrs:
			ops = append(ops, Op{Action: OpUpdate, Layer: typ, ID: id, Attrs: attrPalette[s.next()%len(attrPalette)]})
		case kindUpdateBoth:
			ops = append(ops, Op{Action: OpUpdate, Layer: typ, ID: id, WKT: wkt(), Attrs: attrPalette[s.next()%len(attrPalette)]})
		case kindDelete:
			if li > 0 || len(live[li]) > 1 {
				ops = append(ops, Op{Action: OpDelete, Layer: typ, ID: id})
				live[li] = slices.Delete(live[li], at, at+1)
			}
		case kindReinsert:
			ops = append(ops, Op{Action: OpDelete, Layer: typ, ID: id}, Op{Action: OpInsert, Layer: typ, ID: id, WKT: wkt()})
			live[li] = append(slices.Delete(live[li], at, at+1), id)
		case kindEmpty:
			keep := 0
			if li == 0 {
				keep = 1
			}
			for _, id := range live[li][keep:] {
				ops = append(ops, Op{Action: OpDelete, Layer: typ, ID: id})
			}
			live[li] = live[li][:keep]
		}
	}
	if len(ops) == 0 {
		ops = append(ops, Op{Action: OpInsert, Layer: d.Reference.Type, ID: fmt.Sprintf("n%d", *fresh+1), WKT: "POINT (1 1)"})
		*fresh++
	}
	return ops
}

// writeJSON returns d.WriteJSON's bytes.
func writeJSON(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSpans requires enc to be d's canonical bytes with every
// feature's fragment where enc says it is.
func checkSpans(t *testing.T, enc *Encoding, d *Dataset) {
	t.Helper()
	if want := writeJSON(t, d); !bytes.Equal(enc.Bytes, want) {
		t.Fatalf("encoding differs from WriteJSON:\n%s\nwant\n%s", enc.Bytes, want)
	}
	for li, l := range append([]*Layer{d.Reference}, d.Relevant...) {
		ind := 8
		if li == 0 {
			ind = 6
		}
		off := enc.offs[li]
		for i := range l.Features {
			var e encoder
			if err := e.feature(&l.Features[i], ind); err != nil {
				t.Fatal(err)
			}
			if got := enc.Bytes[off[i] : off[i+1]-1]; !bytes.Equal(got, e.b) {
				t.Fatalf("layer %d feature %d: span holds %q, want %q", li, i, got, e.b)
			}
		}
	}
}

// runSuccessorChain applies each batch in turn and requires every
// successor to be spliced from its parent's encoding into exactly the
// bytes WriteJSON writes.
func runSuccessorChain(t *testing.T, d *Dataset, batches func(d *Dataset) []Op, n int) {
	t.Helper()
	enc, err := d.Encode(0)
	if err != nil {
		t.Fatal(err)
	}
	checkSpans(t, enc, d)
	for b := 0; b < n; b++ {
		ops := batches(d)
		nd, cs, err := d.ApplyOps(ops)
		if err != nil {
			t.Fatalf("batch %d %+v: %v", b, ops, err)
		}
		next, spliced, err := EncodeSuccessor(enc, d, nd, cs)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if !spliced {
			t.Fatalf("batch %d %+v: rendered in full, not spliced", b, ops)
		}
		checkSpans(t, next, nd)
		d, enc = nd, next
	}
}

// FuzzEncodeSuccessor drives chains of at least two op batches (inserts,
// geometry, attrs-only and combined updates, deletes, delete +
// re-insert, emptied layers and insert + delete) through EncodeSuccessor
// and requires each successor's bytes to be WriteJSON's.
func FuzzEncodeSuccessor(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		3,                         // batch 0: four op kinds
		0, kindUpdateWKT, 1, 5, 6, // reference geometry
		0, kindUpdateAttrs, 2, 3, // reference attrs only
		3, kindReinsert, 0, 1, 2, // school
		1, kindEmpty, 0, // slum
		1,                      // batch 1: two op kinds
		2, kindInsert, 9, 9, 4, // into the empty layer
		4, kindUpdateBoth, 0, 1, 1, 5, // the escaped layer
	})
	f.Add([]byte{
		3,                // batch 0: four op kinds
		1, kindDelete, 0, // the slum layer, one delete at a time
		1, kindDelete, 0,
		1, kindDelete, 0,
		0, kindTransient, 1, 2, 3, // reference insert + delete
		1,               // batch 1: two op kinds
		0, kindEmpty, 0, // the reference, down to one feature
		3, kindUpdateAttrs, 0, 0, // school attrs removed
	})
	f.Add([]byte("successor chains of arbitrary bytes"))
	f.Fuzz(func(t *testing.T, script []byte) {
		s := &opScript{data: script}
		fresh := 0
		batches := 2
		if n := len(script) / 8; n > batches {
			batches = min(n, 8)
		}
		runSuccessorChain(t, successorScene(), func(d *Dataset) []Op { return successorBatch(s, d, &fresh) }, batches)
	})
}

// TestEncodeSuccessorChain walks each op kind through a chain on a
// generated-size layer, so runs of copied fragments span many features.
func TestEncodeSuccessorChain(t *testing.T) {
	d := successorScene()
	for i := 0; i < 200; i++ {
		d.Relevant[0].Add(Feature{ID: fmt.Sprintf("x%d", i), Geometry: geom.Pt(float64(i), 0.5)})
	}
	kind := 0
	fresh := 0
	runSuccessorChain(t, d, func(d *Dataset) []Op {
		// One kind per batch, on the slum layer, then the reference.
		k := kind % numKinds
		li := 1 + kind/numKinds%2*4 // 1 = slum; 5 wraps to the reference
		kind++
		return successorBatch(&opScript{data: []byte{0, byte(li), byte(k), byte(3 * kind), 1, 2, 1}}, d, &fresh)
	}, 2*numKinds)
}

func TestEncodeSuccessorFallsBack(t *testing.T) {
	d := successorScene()
	enc, err := d.Encode(0)
	if err != nil {
		t.Fatal(err)
	}
	nd, cs, err := d.ApplyOps([]Op{{Action: OpUpdate, Layer: "slum", ID: "s1", WKT: "POINT (7 7)"}})
	if err != nil {
		t.Fatal(err)
	}
	want := writeJSON(t, nd)
	reread, err := ReadJSON(bytes.NewReader(enc.Bytes))
	if err != nil {
		t.Fatal(err)
	}
	other := successorScene()
	other.Relevant = other.Relevant[:2]
	otherEnc, err := other.Encode(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		enc    *Encoding
		parent *Dataset
		cs     *ChangeSet
	}{
		"no encoding":                   {nil, d, cs},
		"encoding of equal bytes":       {enc, reread, cs},
		"encoding of other layers":      {otherEnc, d, cs},
		"change set without the update": {enc, d, &ChangeSet{ByLayer: map[string]*LayerDiff{"slum": {Deleted: []string{"s1"}}}}},
	} {
		got, spliced, err := EncodeSuccessor(tc.enc, tc.parent, nd, tc.cs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spliced || !bytes.Equal(got.Bytes, want) {
			t.Errorf("%s: spliced %t, bytes equal %t; want a full render", name, spliced, bytes.Equal(got.Bytes, want))
		}
		checkSpans(t, got, nd)
	}
}

// TestEncodeSuccessorUnencodable: an attribute encoding/json refuses
// fails the successor exactly as it fails WriteJSON.
func TestEncodeSuccessorUnencodable(t *testing.T) {
	d := successorScene()
	enc, err := d.Encode(0)
	if err != nil {
		t.Fatal(err)
	}
	nd, cs, err := d.ApplyOps([]Op{{Action: OpUpdate, Layer: "school", ID: "sc1", Attrs: map[string]Value{"bad": math.Inf(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	werr := nd.WriteJSON(&bytes.Buffer{})
	_, _, err = EncodeSuccessor(enc, d, nd, cs)
	if werr == nil || err == nil || err.Error() != werr.Error() {
		t.Fatalf("EncodeSuccessor error %v, WriteJSON error %v", err, werr)
	}
}

// FuzzAttrsJSON checks the direct attrs renderer against
// json.MarshalIndent, errors included, over maps of every value type it
// writes itself plus an int64, which goes through MarshalIndent.
func FuzzAttrsJSON(f *testing.F) {
	f.Add("k", "v", 1.5, int64(3), true, uint8(0xff))
	f.Add("<key>", `html <&> "q"`, 1e21, int64(-1), false, uint8(0x3f))
	f.Add("a\u2028", "ok\xff\xfe", 1e-7, int64(0), true, uint8(0x17))
	f.Add("z", "", math.Copysign(0, -1), int64(math.MinInt64), false, uint8(0x2e))
	f.Add("", "tab\there", 123456789.123456789, int64(42), true, uint8(0x3f))
	f.Add("e", "x", 9.999999999999999e-7, int64(7), false, uint8(0x22))
	f.Add("n", "x", math.NaN(), int64(7), false, uint8(0x03))
	f.Add("i", "x", math.Inf(-1), int64(7), false, uint8(0x21))
	f.Fuzz(func(t *testing.T, key, s string, fl float64, i int64, b bool, sel uint8) {
		attrs := map[string]Value{}
		for bit, v := range []Value{s, fl, int(i), b, nil, -fl / 3, i} {
			if sel&(1<<bit) != 0 {
				attrs[fmt.Sprint(key, bit)] = v
			}
		}
		if len(attrs) == 0 {
			return
		}
		const in = "        "
		want, werr := json.MarshalIndent(attrs, in, "  ")
		var e encoder
		got, err := e.attrs([]byte("prefix"), attrs, in)
		if werr != nil || err != nil {
			if werr == nil || err == nil || err.Error() != werr.Error() {
				t.Fatalf("%v: error %v, MarshalIndent %v", attrs, err, werr)
			}
			return
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("%v:\n%s\nMarshalIndent\n%s", attrs, got, want)
		}
	})
}
