package dataset

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/geom"
	"repro/internal/par"
)

// jsonDataset is the on-disk representation of a Dataset: geometries are
// WKT strings inside plain JSON, so files are diffable and editable.
type jsonDataset struct {
	Reference       jsonLayer   `json:"reference"`
	Relevant        []jsonLayer `json:"relevant"`
	NonSpatialAttrs []string    `json:"nonSpatialAttrs,omitempty"`
}

type jsonLayer struct {
	Type     string        `json:"type"`
	Features []jsonFeature `json:"features"`
}

type jsonFeature struct {
	ID    string           `json:"id"`
	WKT   string           `json:"wkt"`
	Attrs map[string]Value `json:"attrs,omitempty"`
}

// WriteJSON serialises the dataset to w as two-space-indented JSON.
//
// The bytes are exactly those json.Encoder with SetIndent("", "  ")
// writes for jsonDataset, because their SHA-256 is the dataset's content
// address. They are produced in one pass by the renderer Encode and
// EncodeSuccessor share: keys and layout are literal, plain strings are
// copied, attrs maps of strings, finite float64s, ints, bools and nils
// are appended as encoding/json writes them, and only other attrs values
// and strings that need escaping go through encoding/json. Like the
// Encoder, WriteJSON makes a single Write, so an attribute that cannot
// be encoded leaves w untouched. A *bytes.Buffer is appended to in
// place.
func (d *Dataset) WriteJSON(w io.Writer) error {
	e := encoder{}
	if buf, ok := w.(*bytes.Buffer); ok {
		e.b = buf.AvailableBuffer()
	}
	if err := e.dataset(d); err != nil {
		return err
	}
	_, err := w.Write(e.b)
	return err
}

// SaveJSON writes the dataset to a file.
func (d *Dataset) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: saving %s: %w", path, err)
	}
	defer f.Close()
	if err := d.WriteJSON(f); err != nil {
		return fmt.Errorf("dataset: saving %s: %w", path, err)
	}
	return f.Close()
}

// indentSpaces is sliced for every line's indentation; the deepest line
// WriteJSON writes outside an attrs map is indented by 10.
const indentSpaces = "          "

// encoder is the one renderer of the canonical scene form WriteJSON
// describes. With offs non-nil it records where every feature's
// fragment lies (see Encoding). With src set, which needs offs, it
// copies src's fragments instead of rendering features, as from
// directs: from[li][i] is the fragment of src's layer li that feature i
// of layer li copies, or -1 to render the feature, and a nil from[li]
// copies src's layer li whole.
type encoder struct {
	b    []byte
	offs [][]int
	src  *Encoding
	from [][]int
	keys []string // scratch for sorting an attrs map's keys
}

func (e *encoder) dataset(d *Dataset) error {
	e.b = append(e.b, "{\n  \"reference\": "...)
	if err := e.layer(0, d.Reference, 2); err != nil {
		return err
	}
	e.b = append(e.b, ",\n  \"relevant\": "...)
	if len(d.Relevant) == 0 {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, l := range d.Relevant {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, "\n    "...)
			if err := e.layer(1+i, l, 4); err != nil {
				return err
			}
		}
		e.b = append(e.b, "\n  ]"...)
	}
	if len(d.NonSpatialAttrs) > 0 {
		e.b = append(e.b, ",\n  \"nonSpatialAttrs\": ["...)
		for i, a := range d.NonSpatialAttrs {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = appendJSONString(append(e.b, "\n    "...), a)
		}
		e.b = append(e.b, "\n  ]"...)
	}
	e.b = append(e.b, "\n}\n"...)
	return nil
}

// layer renders l, layer li of the dataset, as an object whose closing
// brace is indented by ind.
func (e *encoder) layer(li int, l *Layer, ind int) error {
	in := indentSpaces[:ind+2]
	e.b = append(append(append(e.b, "{\n"...), in...), "\"type\": "...)
	e.b = appendJSONString(e.b, l.Type)
	e.b = append(append(append(e.b, ",\n"...), in...), "\"features\": "...)
	n := len(l.Features)
	var off []int
	if e.offs != nil {
		off = make([]int, n+1)
		e.offs = append(e.offs, off)
	}
	if n == 0 {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := 0; i < n; {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			if k := e.copyRun(li, i, n, off); k > 0 {
				i += k
				continue
			}
			if off != nil {
				off[i] = len(e.b)
			}
			if err := e.feature(&l.Features[i], ind+4); err != nil {
				return err
			}
			i++
		}
		if off != nil {
			off[n] = len(e.b) + 1
		}
		e.b = append(append(append(e.b, '\n'), in...), ']')
	}
	e.b = append(append(append(e.b, '\n'), indentSpaces[:ind]...), '}')
	return nil
}

// copyRun copies, when src is set, the longest run of src fragments
// that features i, i+1, ... of layer li (of n features) take back to
// back, their ',' separators included, records where each lands in off,
// and returns the run's length; 0 means feature i is rendered.
func (e *encoder) copyRun(li, i, n int, off []int) int {
	if e.src == nil {
		return 0
	}
	p, k := i, n-i // a nil from copies the whole layer
	if from := e.from[li]; from != nil {
		if p = from[i]; p < 0 {
			return 0
		}
		k = 1
		for i+k < n && from[i+k] == p+k {
			k++
		}
	}
	po := e.src.offs[li]
	shift := len(e.b) - po[p]
	e.b = append(e.b, e.src.Bytes[po[p]:po[p+k]-1]...)
	for j := 0; j < k; j++ {
		off[i+j] = po[p+j] + shift
	}
	return k
}

// feature appends f as an array element whose braces are indented by
// ind.
func (e *encoder) feature(f *Feature, ind int) error {
	in := indentSpaces[:ind+2]
	b := append(append(e.b, '\n'), indentSpaces[:ind]...)
	b = append(append(append(b, "{\n"...), in...), "\"id\": "...)
	b = appendJSONString(b, f.ID)
	b = append(append(append(b, ",\n"...), in...), "\"wkt\": "...)
	b = appendWKTString(b, f.Geometry)
	if len(f.Attrs) > 0 {
		b = append(append(append(b, ",\n"...), in...), "\"attrs\": "...)
		var err error
		if b, err = e.attrs(b, f.Attrs, in); err != nil {
			return err
		}
	}
	e.b = append(append(append(b, '\n'), indentSpaces[:ind]...), '}')
	return nil
}

// attrs appends a non-empty attrs map as json.MarshalIndent(attrs, in,
// "  ") writes it: keys sorted and HTML-escaped, one member a line.
// Strings, finite float64s, ints, bools and nils are appended directly;
// a map holding any other value, NaN or an infinity goes through
// MarshalIndent whole, which also gives its error.
func (e *encoder) attrs(b []byte, attrs map[string]Value, in string) ([]byte, error) {
	keys := e.keys[:0]
	for k, v := range attrs {
		if !scalarAttr(v) {
			m, err := json.MarshalIndent(attrs, in, "  ")
			return append(b, m...), err
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.keys = keys
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(append(append(append(b, '\n'), in...), "  "...), k)
		b = appendScalarAttr(append(b, ": "...), attrs[k])
	}
	return append(append(append(b, '\n'), in...), '}'), nil
}

// scalarAttr reports whether appendScalarAttr writes v.
func scalarAttr(v Value) bool {
	switch v := v.(type) {
	case string, int, bool, nil:
		return true
	case float64:
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	return false
}

// appendScalarAttr appends a value scalarAttr accepts as encoding/json
// writes it.
func appendScalarAttr(b []byte, v Value) []byte {
	switch v := v.(type) {
	case string:
		return appendJSONString(b, v)
	case int:
		return strconv.AppendInt(b, int64(v), 10)
	case bool:
		return strconv.AppendBool(b, v)
	case float64:
		return appendJSONFloat(b, v)
	}
	return append(b, "null"...)
}

// appendJSONFloat appends a finite f as encoding/json does: shortest
// form, in exponent notation below 1e-6 or from 1e21 on, with a
// one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendWKTString appends g's WKT as a JSON string, "" for a nil
// geometry. The text is rendered in place. geom's own types write only
// ASCII letters, digits, spaces and ( ) , . + -, which JSON never
// escapes; the text of a geometry from outside package geom is scanned
// and re-quoted when it needs escaping.
func appendWKTString(b []byte, g geom.Geometry) []byte {
	b = append(b, '"')
	switch g.(type) {
	case nil:
		return append(b, '"')
	case geom.Point, geom.MultiPoint, geom.LineString, geom.MultiLineString, geom.Polygon, geom.MultiPolygon:
		return append(geom.AppendWKT(b, g), '"')
	}
	start := len(b)
	if b = geom.AppendWKT(b, g); plainJSON(b[start:]) {
		return append(b, '"')
	}
	return appendJSONString(b[:start-1], string(b[start:]))
}

// appendJSONString appends s as a JSON string: verbatim when plainJSON,
// otherwise as json.Marshal quotes it (HTML-escaped, invalid UTF-8
// replaced), which is what the Encoder writes.
func appendJSONString(b []byte, s string) []byte {
	if plainJSON(s) {
		return append(append(append(b, '"'), s...), '"')
	}
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// plainJSON reports whether s is printable ASCII that encoding/json
// writes unescaped: no quote, backslash, or HTML-sensitive <, >, &.
func plainJSON[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// ReadJSON parses a dataset from r; see WriteJSON for the format.
func ReadJSON(r io.Reader) (*Dataset, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: decoding JSON: %w", err)
	}
	return decodeJSON(data)
}

// LoadJSON reads a dataset from a file.
func LoadJSON(path string) (*Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: loading %s: %w", path, err)
	}
	d, err := decodeJSON(data)
	if err != nil {
		return nil, fmt.Errorf("dataset: loading %s: %w", path, err)
	}
	return d, nil
}

// readAll reads r to EOF. A reader that reports its remaining length is
// read into one buffer of that size; io.ReadAll's doubling would hold up
// to twice the document.
func readAll(r io.Reader) ([]byte, error) {
	sized, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	buf := bytes.NewBuffer(make([]byte, 0, sized.Len()+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// DecodeStrict decodes data, which must be exactly one JSON document,
// into v: an unknown field, bytes after the document or a second
// document is an error. It is the one rule behind every strict JSON
// input: mutation files, co-location and mining configs, and the
// qsrmined request bodies.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after the document")
	}
	return nil
}

// decodeJSON decodes one document. The canonical form WriteJSON emits
// takes the one-pass decodeCanonical; anything else goes to
// json.Unmarshal, whose case-folded keys and merged duplicate keys the
// fast path never re-implements. Both accept only whitespace after the
// document, so the digest of an upload covers the scene and nothing
// else. Unknown keys are ignored.
func decodeJSON(data []byte) (*Dataset, error) {
	jd, ok := decodeCanonical(data)
	if !ok {
		jd = jsonDataset{}
		if err := json.Unmarshal(data, &jd); err != nil {
			return nil, fmt.Errorf("dataset: decoding JSON: %w", err)
		}
	}
	return jd.dataset()
}

// dataset parses the WKT of every feature into a Dataset on a par pool
// of GOMAXPROCS workers. Each layer is cut into par.Workers(0, n)
// contiguous chunks of its n features, as State.prepareLayers cuts
// preparation, and each chunk is one geom.ParseWKTAll, so the chunk's
// coordinate sequences share one arena. Every layer's Features is
// allocated once at its final length. Of the features that fail to
// parse, the first in document order is reported: the reference layer
// first, then the relevant layers, each in feature order.
func (jd *jsonDataset) dataset() (*Dataset, error) {
	jls := append([]jsonLayer{jd.Reference}, jd.Relevant...)
	layers := make([]*Layer, len(jls))
	type chunk struct{ layer, lo, hi int }
	var chunks []chunk
	for li, jl := range jls {
		n := len(jl.Features)
		layers[li] = NewLayer(jl.Type)
		if n == 0 {
			continue
		}
		layers[li].Features = make([]Feature, n)
		workers := par.Workers(0, n)
		per := (n + workers - 1) / workers
		for lo := 0; lo < n; lo += per {
			chunks = append(chunks, chunk{li, lo, min(lo+per, n)})
		}
	}
	errs := make([]error, len(chunks))
	// context.TODO never cancels, so For always runs every chunk.
	_ = par.For(context.TODO(), len(chunks), par.Workers(0, len(chunks)), func(_, i int) {
		c := chunks[i]
		jfs, feats := jls[c.layer].Features[c.lo:c.hi], layers[c.layer].Features[c.lo:c.hi]
		srcs := make([]string, len(jfs))
		for k := range jfs {
			srcs[k] = jfs[k].WKT
		}
		gs, err := geom.ParseWKTAll(srcs)
		for k, g := range gs {
			feats[k] = Feature{ID: jfs[k].ID, Geometry: g, Attrs: jfs[k].Attrs}
		}
		if err != nil {
			errs[i] = fmt.Errorf("dataset: layer %q feature %q: %w", jls[c.layer].Type, jfs[len(gs)].ID, err)
		}
	})
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	d := &Dataset{Reference: layers[0], NonSpatialAttrs: jd.NonSpatialAttrs}
	if len(layers) > 1 {
		d.Relevant = layers[1:]
	}
	return d, nil
}

// decodeCanonical decodes data in one pass when it is in canonical form:
// one JSON object with the exact lowercase keys of jsonDataset, each at
// most once, strings of printable ASCII without escapes, and attrs
// values that are strings, numbers or booleans; only whitespace may
// follow. It reports false for any other input, which encoding/json then
// decodes; where it reports true, encoding/json decodes the same value.
func decodeCanonical(data []byte) (jsonDataset, bool) {
	s := &canonicalScanner{data: data}
	var jd jsonDataset
	var seen uint8
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "reference":
			return once(&seen, 1) && s.layer(&jd.Reference)
		case "relevant":
			return once(&seen, 2) && list(s, &jd.Relevant, s.layer)
		case "nonSpatialAttrs":
			return once(&seen, 4) && list(s, &jd.NonSpatialAttrs, s.str)
		}
		return false
	})
	s.space()
	return jd, ok && s.pos == len(data)
}

// once sets bit in *seen and reports whether it was clear: the check
// that a key appears at most once in its object.
func once(seen *uint8, bit uint8) bool {
	first := *seen&bit == 0
	*seen |= bit
	return first
}

// canonicalScanner is decodeCanonical's cursor. Its methods report false
// when the input leaves the canonical form; all but accept and digits,
// which work inside a number, skip the whitespace before their token.
type canonicalScanner struct {
	data []byte
	pos  int
}

func (s *canonicalScanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// next consumes c if it is the next non-space byte.
func (s *canonicalScanner) next(c byte) bool {
	s.space()
	return s.accept(c)
}

// accept consumes c if it is the next byte.
func (s *canonicalScanner) accept(c byte) bool {
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// object consumes an object, handing each key to member, which must
// consume the value.
func (s *canonicalScanner) object(member func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	for {
		key, ok := s.raw()
		if !ok || !s.next(':') || !member(key) {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// list consumes an array into *dst, decoding each element with elem.
// Like encoding/json, it makes *dst non-nil even for [].
func list[T any](s *canonicalScanner, dst *[]T, elem func(*T) bool) bool {
	if !s.next('[') {
		return false
	}
	*dst = []T{}
	if s.next(']') {
		return true
	}
	for {
		var zero T
		*dst = append(*dst, zero)
		if !elem(&(*dst)[len(*dst)-1]) {
			return false
		}
		if s.next(']') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// raw consumes a string and returns its bytes, which alias data.
func (s *canonicalScanner) raw() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for i := s.pos; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			str := s.data[s.pos:i]
			s.pos = i + 1
			return str, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *canonicalScanner) str(dst *string) bool {
	b, ok := s.raw()
	*dst = string(b)
	return ok
}

func (s *canonicalScanner) layer(jl *jsonLayer) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "type":
			return once(&seen, 1) && s.str(&jl.Type)
		case "features":
			return once(&seen, 2) && list(s, &jl.Features, s.feature)
		}
		return false
	})
}

func (s *canonicalScanner) feature(jf *jsonFeature) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return once(&seen, 1) && s.str(&jf.ID)
		case "wkt":
			return once(&seen, 2) && s.str(&jf.WKT)
		case "attrs":
			return once(&seen, 4) && s.attrs(&jf.Attrs)
		}
		return false
	})
}

func (s *canonicalScanner) attrs(dst *map[string]Value) bool {
	m := map[string]Value{}
	*dst = m
	return s.object(func(name []byte) bool {
		v, ok := s.scalar()
		m[string(name)] = v
		return ok
	})
}

// scalar consumes an attrs value: a string, a number in strict JSON
// grammar that ParseFloat accepts, true or false.
func (s *canonicalScanner) scalar() (Value, bool) {
	s.space()
	if s.pos == len(s.data) {
		return nil, false
	}
	switch c := s.data[s.pos]; {
	case c == '"':
		var str string
		return str, s.str(&str)
	case c == 't':
		return true, s.literal("true")
	case c == 'f':
		return false, s.literal("false")
	case c == '-' || ('0' <= c && c <= '9'):
		return s.number()
	}
	return nil, false
}

func (s *canonicalScanner) literal(lit string) bool {
	if !bytes.HasPrefix(s.data[s.pos:], []byte(lit)) {
		return false
	}
	s.pos += len(lit)
	return true
}

// number consumes -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? and
// converts it as encoding/json does for an interface value.
func (s *canonicalScanner) number() (Value, bool) {
	start := s.pos
	s.accept('-')
	if !s.accept('0') && s.digits() == 0 {
		return nil, false
	}
	if s.accept('.') && s.digits() == 0 {
		return nil, false
	}
	if s.accept('e') || s.accept('E') {
		if !s.accept('+') {
			s.accept('-')
		}
		if s.digits() == 0 {
			return nil, false
		}
	}
	f, err := strconv.ParseFloat(string(s.data[start:s.pos]), 64)
	return f, err == nil
}

// digits consumes a run of decimal digits and returns its length.
func (s *canonicalScanner) digits() int {
	start := s.pos
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos - start
}

// maxTableLine is the length in bytes, without its '\n', from which
// ReadTableCSV refuses a line with bufio.ErrTooLong: the token limit of
// the 16 MiB bufio.Scanner buffer it used to read through.
const maxTableLine = 16 * 1024 * 1024

// WriteTableCSV writes the transaction table in the format ReadTableCSV
// reads: one line per transaction, reference ID first, then the items,
// comma-separated. It writes only tables that ReadTableCSV reads back as
// they are, up to item normalisation, and otherwise returns an error
// naming the first row that would not survive, before writing anything.
// Such a row has a reference ID that is empty, starts with '#', contains
// ',' or '\n', or has leading white space (or trailing white space
// where the row has no items); or an item that is empty, contains ',' or
// '\n', or has leading or trailing white space; or a line of 16 MiB or
// more. The output is built in one buffer and written with one Write.
func (t *Table) WriteTableCSV(w io.Writer) error {
	n := 0
	for i, tx := range t.Transactions {
		line, err := tx.csvLineLen()
		if err != nil {
			return fmt.Errorf("dataset: writing table: row %d (reference ID %q): %w", i+1, tx.RefID, err)
		}
		n += line + 1
	}
	b := make([]byte, 0, n)
	for _, tx := range t.Transactions {
		b = append(b, tx.RefID...)
		for _, it := range tx.Items {
			b = append(append(b, ','), it...)
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// csvLineLen returns the length of tx's WriteTableCSV line without its
// '\n', or why ReadTableCSV would not read that line back as tx.
func (tx Transaction) csvLineLen() (int, error) {
	id := tx.RefID
	switch {
	case id == "":
		return 0, fmt.Errorf("empty reference ID")
	case id[0] == '#':
		return 0, fmt.Errorf("reference ID starts with '#'")
	case breaksLine(id):
		return 0, fmt.Errorf("reference ID contains ',' or a newline")
	case strings.TrimLeftFunc(id, unicode.IsSpace) != id:
		return 0, fmt.Errorf("reference ID has leading white space")
	case len(tx.Items) == 0 && strings.TrimRightFunc(id, unicode.IsSpace) != id:
		return 0, fmt.Errorf("reference ID has trailing white space and the row has no items")
	}
	n := len(id)
	for _, it := range tx.Items {
		switch {
		case it == "":
			return 0, fmt.Errorf("empty item")
		case breaksLine(it):
			return 0, fmt.Errorf("item %q contains ',' or a newline", it)
		case strings.TrimSpace(it) != it:
			return 0, fmt.Errorf("item %q has leading or trailing white space", it)
		}
		n += 1 + len(it)
	}
	if n >= maxTableLine {
		return 0, fmt.Errorf("line of %d bytes reaches the 16 MiB line limit", n)
	}
	return n, nil
}

// breaksLine reports whether s holds a ',' or '\n', which would split
// it when read back.
func breaksLine(s string) bool {
	return strings.IndexByte(s, ',') >= 0 || strings.IndexByte(s, '\n') >= 0
}

// ReadTableCSV parses the WriteTableCSV format: one transaction per line,
// "refID,item,item,...". Each line is trimmed of surrounding white
// space; blank lines and lines starting with '#' are skipped but still
// counted in error line numbers. The reference ID is the text before the
// first comma, untrimmed; the items are the fields after it, trimmed,
// with empty ones dropped, then normalised (sorted, deduplicated). A
// line of 16 MiB or more fails with bufio.ErrTooLong. If r fails, the
// bytes read before the failure are parsed first, so a bad line among
// them is reported before the read error.
//
// The body is read into one string, in one allocation when r reports
// its remaining length with a Len method. Reference IDs and items are
// substrings of it, and all items share one backing array in which each
// row is a capacity-capped slice, so an append to one row's items can
// never overwrite the next row's.
func ReadTableCSV(r io.Reader) (*Table, error) {
	size := 0
	if sized, ok := r.(interface{ Len() int }); ok {
		size = sized.Len()
	}
	return readTableCSV(r, size)
}

// LoadTableCSV reads a transaction table from a file.
func LoadTableCSV(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: loading %s: %w", path, err)
	}
	defer f.Close()
	size := 0
	if fi, err := f.Stat(); err == nil {
		size = int(fi.Size())
	}
	t, err := readTableCSV(f, size)
	if err != nil {
		return nil, fmt.Errorf("dataset: loading %s: %w", path, err)
	}
	return t, nil
}

// readTableCSV reads r into a string of initial capacity size and
// parses it.
func readTableCSV(r io.Reader, size int) (*Table, error) {
	var body strings.Builder
	body.Grow(size)
	_, readErr := io.Copy(&body, r)
	t, err := parseTableCSV(body.String())
	if err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, fmt.Errorf("dataset: reading table: %w", readErr)
	}
	return t, nil
}

// parseTableCSV parses a whole ReadTableCSV body.
func parseTableCSV(body string) (*Table, error) {
	// Sized for one row per line and one item per comma, which ordinary
	// tables never outgrow; the caps keep a body of bare newlines or
	// commas from reserving more than two to three times its own size.
	rows := make([]Transaction, 0, min(strings.Count(body, "\n")+1, len(body)/16+1))
	items := make([]string, 0, min(strings.Count(body, ","), len(body)/8))
	lineNo := 0
	for rest := body; rest != ""; {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		lineNo++
		if len(line) >= maxTableLine {
			return nil, fmt.Errorf("dataset: reading table: %w", bufio.ErrTooLong)
		}
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		refID, fields, more := cutComma(line)
		if refID == "" {
			return nil, fmt.Errorf("dataset: line %d: empty reference ID", lineNo)
		}
		lo := len(items)
		for more {
			var f string
			f, fields, more = cutComma(fields)
			if f = strings.TrimSpace(f); f != "" {
				items = append(items, f)
			}
		}
		if row := items[lo:]; !strictlyAscending(row) {
			sort.Strings(row)
			items = items[:lo+len(slices.Compact(row))]
		}
		rows = append(rows, Transaction{RefID: refID, Items: items[lo:]})
	}
	// Point every row at the final backing (items may have outgrown its
	// first), capped so an append to one row cannot reach the next.
	off := 0
	for i := range rows {
		end := off + len(rows[i].Items)
		rows[i].Items = items[off:end:end]
		off = end
	}
	return &Table{Transactions: rows}, nil
}

// cutComma is strings.Cut(s, ",") without the general substring search.
func cutComma(s string) (before, after string, found bool) {
	if i := strings.IndexByte(s, ','); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", false
}

// strictlyAscending reports whether items is sorted without repeats, the
// form WriteTableCSV writes a normalised table in.
func strictlyAscending(items []string) bool {
	for i := 1; i < len(items); i++ {
		if items[i-1] >= items[i] {
			return false
		}
	}
	return true
}
