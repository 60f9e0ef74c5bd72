package dataset

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// The parsers below face untrusted bytes directly in the qsrmined
// upload endpoints, so each gets a fuzz target: any input may be
// rejected with an error, but none may panic, and anything that parses
// must survive Validate and a write/re-read round trip.

// canonicalFallbacks are inputs outside the canonical form, one per
// reason decodeCanonical hands a document to encoding/json.
var canonicalFallbacks = map[string]string{
	"quote escape":      `{"reference":{"type":"d","features":[{"id":"a\"b","wkt":"POINT (1 1)"}]}}`,
	"u2028 escape":      `{"reference":{"type":"d","features":[{"id":"a\u2028","wkt":"POINT (1 1)"}]}}`,
	"non-ASCII ID":      `{"reference":{"type":"d","features":[{"id":"café","wkt":"POINT (1 1)"}]}}`,
	"duplicate merge":   `{"reference":{"features":[{"id":"a","wkt":"POINT (1 1)"}],"features":[{"wkt":"POINT (2 2)"}]}}`,
	"duplicate id":      `{"reference":{"features":[{"id":"a","id":"b","wkt":"POINT (1 1)"}]}}`,
	"case-variant key":  `{"Reference":{"type":"d","features":[{"id":"x","wkt":"POINT (1 1)"}]}}`,
	"unknown key":       `{"reference":{"type":"d","features":[]},"extra":1}`,
	"null features":     `{"reference":{"type":"d","features":null},"relevant":null}`,
	"null attr":         `{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT (1 1)","attrs":{"a":null}}]}}`,
	"nested attr":       `{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT (1 1)","attrs":{"a":{"b":[1]}}}]}}`,
	"out-of-range":      `{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT (1 1)","attrs":{"a":1e400}}]}}`,
	"leading zero":      `{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT (1 1)","attrs":{"a":01}}]}}`,
	"trailing bytes":    `{"reference":{"type":"d","features":[]}} trailing`,
	"leading BOM":       "\xef\xbb\xbf" + `{"reference":{"type":"d","features":[]}}`,
	"trailing comma":    `{"reference":{"type":"d","features":[],}}`,
	"top-level null":    `null`,
	"truncated":         `{"reference":{"type":"d"`,
	"control character": "{\"reference\":{\"type\":\"d\tx\"}}",
}

// FuzzReadJSON checks the one-pass decoder against encoding/json:
// whatever decodeCanonical accepts, encoding/json must decode to the
// same value, and ReadJSON as a whole must accept exactly the documents
// an encoding/json decode followed by WKT parsing accepts, with the same
// result. Accepted documents must also survive Validate and reach a
// fixed point after one write/re-read round trip.
func FuzzReadJSON(f *testing.F) {
	// A real scene, hand-written corner cases, every fallback trigger,
	// and plain garbage.
	var buf bytes.Buffer
	if err := PortoAlegreScene().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT(1 2)"}]}}`))
	f.Add([]byte(`{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT(1 2)","attrs":{"a":"b"}}]},` +
		`"relevant":[{"type":"w","features":[{"id":"y","wkt":"LINESTRING(0 0, 1 1)"}]}]}`))
	f.Add([]byte(`{"reference":{"features":[{"wkt":"POLYGON((0 0, 1 0, 1 1, 0 0))"}]}}`))
	f.Add([]byte(`{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT(NaN Inf)"}]}}`))
	f.Add([]byte(`{"relevant":[],"nonSpatialAttrs":[],"reference":{"features":[{"attrs":{"n":-0.5e+3,"t":true,"f":false,"s":"v","n":1}}]}}`))
	f.Add([]byte(`[`))
	f.Add([]byte("\x00\xff"))
	for _, in := range canonicalFallbacks {
		f.Add([]byte(in))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var want jsonDataset
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		if got, ok := decodeCanonical(data); ok {
			if wantErr != nil {
				t.Fatalf("one-pass decode accepted what encoding/json rejects (%v): %q", wantErr, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("one-pass decode differs from encoding/json:\n got %#v\nwant %#v\ninput: %q", got, want, data)
			}
		}
		var ref *Dataset
		if wantErr == nil {
			ref, wantErr = want.dataset()
		}
		ds, err := ReadJSON(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadJSON error %v, encoding/json path error %v, input: %q", err, wantErr, data)
		}
		if err != nil {
			return
		}
		// Accepted input must be internally consistent and re-encodable.
		_ = ds.Validate()
		var out, refOut bytes.Buffer
		if err := ds.WriteJSON(&out); err != nil {
			return
		}
		if err := ref.WriteJSON(&refOut); err != nil || !bytes.Equal(out.Bytes(), refOut.Bytes()) {
			t.Fatalf("ReadJSON result differs from the encoding/json path (%v), input: %q", err, data)
		}
		back, err := ReadJSON(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip broke: %v\ninput: %q", err, data)
		}
		var again bytes.Buffer
		if err := back.WriteJSON(&again); err != nil || !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("second round trip changed the bytes (%v)\nfirst:  %q\nsecond: %q", err, out.Bytes(), again.Bytes())
		}
	})
}

func FuzzReadGeoJSON(f *testing.F) {
	f.Add([]byte(`{"type":"FeatureCollection","features":[]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","id":"a","geometry":{"type":"Point","coordinates":[1,2]},"properties":{"k":"v"}}]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,0]]]}}]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","geometry":{"type":"LineString","coordinates":[[0,0],[2,3]]}}]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","geometry":{"type":"Polygon","coordinates":[]}}]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[{"type":"Feature","geometry":null}]}`))
	f.Add([]byte(`{"type":"Polygon"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadGeoJSON(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		_ = l.Validate()
		var out bytes.Buffer
		if err := l.WriteGeoJSON(&out); err != nil {
			return
		}
		if _, err := ReadGeoJSON(&out, "fuzz"); err != nil {
			t.Fatalf("round trip broke: %v\ninput: %q", err, data)
		}
	})
}

func FuzzReadTableCSV(f *testing.F) {
	f.Add("r1,a,b\nr2,a,c\n")
	f.Add("# comment\nr1,a\n\nr2,b,b,b\n")
	f.Add("r1, padded , items \n")
	f.Add("r1,a\nr1,b\n") // duplicate reference IDs
	f.Add(",missing-ref\n")
	f.Add("lonely-ref\n")
	f.Add("r1,\"quoted,item\",b\n")
	f.Add("\x00")
	f.Add(strings.Repeat(",", 100))

	f.Fuzz(func(t *testing.T, data string) {
		tab, err := ReadTableCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		// Accepted tables must be well-formed and re-encodable.
		for _, tx := range tab.Transactions {
			if tx.RefID == "" {
				t.Fatalf("accepted transaction with empty reference ID from %q", data)
			}
		}
		var out bytes.Buffer
		if err := tab.WriteTableCSV(&out); err != nil {
			t.Fatalf("re-encoding accepted table: %v", err)
		}
		back, err := ReadTableCSV(&out)
		if err != nil {
			t.Fatalf("round trip broke: %v\ninput: %q", err, data)
		}
		if back.Len() != tab.Len() {
			t.Fatalf("round trip changed row count %d -> %d for %q", tab.Len(), back.Len(), data)
		}
	})
}
