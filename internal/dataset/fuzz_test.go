package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"unicode"
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
	"wkt quote escape":  `{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT (1 1)\""}]}}`,
	"wkt backslash":     `{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT (1 1)\\"}]}}`,
	"wkt u0050 escape":  `{"reference":{"type":"d","features":[{"id":"x","wkt":"\u0050OINT (1 1)"}]}}`,
	"wkt raw tab":       "{\"reference\":{\"type\":\"d\",\"features\":[{\"id\":\"x\",\"wkt\":\"POINT\t(1 1)\"}]}}",
	"wkt non-ASCII":     `{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT (1 1) é"}]}}`,
}

// FuzzReadJSON checks the one-pass decoder against encoding/json:
// whatever decodeCanonical accepts, json.Unmarshal must decode to the
// same value, and ReadJSON as a whole must accept exactly the documents
// json.Unmarshal followed by WKT parsing accepts, with the same result;
// like ReadJSON, json.Unmarshal rejects anything after the document.
// Accepted documents must also survive Validate and reach a fixed point
// after one write/re-read round trip.
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
	f.Add([]byte(`{"reference":{"type":"d","features":null},"relevant":null}`))
	// An empty document, an empty geometry and a null one.
	f.Add([]byte(``))
	f.Add([]byte(`{"reference":{"type":"d","features":[{"id":"x","wkt":"POLYGON EMPTY"}]}}`))
	f.Add([]byte(`{"reference":{"type":"d","features":[{"id":"x","wkt":null}]}}`))
	for _, d := range nullListScenes() {
		buf.Reset()
		if err := d.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes()))
	}
	f.Add([]byte(`[`))
	f.Add([]byte("\x00\xff"))
	for _, in := range canonicalFallbacks {
		f.Add([]byte(in))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var want jsonDataset
		wantErr := json.Unmarshal(data, &want)
		if got, ok := decodeCanonical(string(data)); ok {
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

// readTableCSVOracle is ReadTableCSV as it was before the one-body
// reader, kept verbatim: a bufio.Scanner over lines, strings.Split per
// line and NewTable's normalising copy. The reader is held to it.
func readTableCSVOracle(r io.Reader) (*Table, error) {
	var rows []Transaction
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if fields[0] == "" {
			return nil, fmt.Errorf("dataset: line %d: empty reference ID", lineNo)
		}
		items := make([]string, 0, len(fields)-1)
		for _, f := range fields[1:] {
			if f = strings.TrimSpace(f); f != "" {
				items = append(items, f)
			}
		}
		rows = append(rows, Transaction{RefID: fields[0], Items: items})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading table: %w", err)
	}
	return NewTable(rows), nil
}

// tableCSVSeeds are the reader's edge cases: line endings, Unicode and
// invalid UTF-8 around items, comments, empty fields, and line lengths
// around the first buffer size of the reader's predecessor.
var tableCSVSeeds = []string{
	"r1,a,b\nr2,a,c\n",
	"# comment\nr1,a\n\nr2,b,b,b\n",
	"r1, padded , items \n",
	"r1,a\nr1,b\n", // duplicate reference IDs
	",missing-ref\n",
	"lonely-ref\n",
	"r1,\"quoted,item\",b\n",
	"\x00",
	strings.Repeat(",", 100),
	"r1,b,a\r\nr2,c\r\n",               // CRLF
	"r1,a\rb,c\rr2,d\n",                // lone CR
	"r1,\tb\t,\ta\n\t\n",               // tabs
	"r1,\u00a0b\u00a0,a\u00a0\n",       // NBSP
	"r1,\u0085b,a\u0085\n\u0085r2,c\n", // U+0085
	"r1,\u2028b,a\u2028\n\u2028\n",     // U+2028
	"r1,caf\xe9,\xff\xfe,a\n\xff,b\n",  // invalid UTF-8
	"  # comment\nr1,a\n",
	",,,\n",
	"r1,,a\n",
	"r1\nr2,\n",          // rows with only a reference ID
	"r1 ,a\nr2 \nr3 ,\n", // reference IDs with a trailing space
	"r1,b,a\nr2,c",       // no final newline
	"r1," + strings.Repeat("x", 70*1024) + ",a\nr2,b\n", // a 70 KB line
}

// sameTableResult reports whether two ReadTableCSV outcomes agree: the
// same error text, or no error and deeply equal tables.
func sameTableResult(got *Table, gotErr error, want *Table, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return gotErr != nil && wantErr != nil && gotErr.Error() == wantErr.Error()
	}
	return reflect.DeepEqual(got, want)
}

// rawTable cuts data into a table no reader produces: rows at '\x00',
// the reference ID and items at '\x01'.
func rawTable(data string) *Table {
	t := &Table{}
	for _, line := range strings.Split(data, "\x00") {
		fields := strings.Split(line, "\x01")
		t.Transactions = append(t.Transactions, Transaction{RefID: fields[0], Items: fields[1:]})
	}
	return t
}

// checkTableRoundTrip requires that WriteTableCSV either refuses tab or
// writes bytes ReadTableCSV reads back as tab, items normalised.
func checkTableRoundTrip(t *testing.T, tab *Table) error {
	var out bytes.Buffer
	if err := tab.WriteTableCSV(&out); err != nil {
		if out.Len() != 0 {
			t.Fatalf("refused table %q but wrote %q", tab.Transactions, out.Bytes())
		}
		return err
	}
	back, err := ReadTableCSV(&out)
	if err != nil || !reflect.DeepEqual(back, NewTable(tab.Transactions)) {
		t.Fatalf("round trip of %q gave %q, %v", tab.Transactions, back, err)
	}
	return nil
}

// FuzzReadTableCSV holds ReadTableCSV to its predecessor on every input
// (the same error text, or deeply equal tables), at one chunk and at a
// chunk count derived from the input, and checks the writer's
// representability rule: WriteTableCSV either refuses a table or the
// table survives a write and re-read, and of a parsed table it refuses
// only an itemless row whose reference ID ends in white space.
func FuzzReadTableCSV(f *testing.F) {
	for _, seed := range tableCSVSeeds {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data string) {
		tab, err := ReadTableCSV(strings.NewReader(data))
		want, wantErr := readTableCSVOracle(strings.NewReader(data))
		if !sameTableResult(tab, err, want, wantErr) {
			t.Fatalf("ReadTableCSV differs from its predecessor on %q:\n got %q, %v\nwant %q, %v", data, tab, err, want, wantErr)
		}
		// The input is far below tableParseChunk, so parse it again in
		// as many chunks as its length picks.
		chunks := 2 + len(data)%7
		if got, err := parseTableCSV(data, chunks); !sameTableResult(got, err, want, wantErr) {
			t.Fatalf("%d chunks differ from the predecessor on %q:\n got %q, %v\nwant %q, %v", chunks, data, got, err, want, wantErr)
		}
		checkTableRoundTrip(t, rawTable(data))
		if err != nil {
			return
		}
		for _, tx := range tab.Transactions {
			if tx.RefID == "" {
				t.Fatalf("accepted transaction with empty reference ID from %q", data)
			}
		}
		if err := checkTableRoundTrip(t, tab); err != nil {
			lossy := false
			for _, tx := range tab.Transactions {
				lossy = lossy || len(tx.Items) == 0 && strings.TrimRightFunc(tx.RefID, unicode.IsSpace) != tx.RefID
			}
			if !lossy {
				t.Fatalf("refused a parsed table that round-trips (%v): %q", err, data)
			}
		}
	})
}
