package geom

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestWKTRoundTrip(t *testing.T) {
	cases := []Geometry{
		Pt(1, 2),
		Pt(-1.5, 2.25),
		MultiPoint{Points: []Point{Pt(0, 0), Pt(3, 4)}},
		Line(Pt(0, 0), Pt(1, 1), Pt(2, 0)),
		MultiLineString{Lines: []LineString{
			Line(Pt(0, 0), Pt(1, 0)),
			Line(Pt(0, 1), Pt(1, 1), Pt(2, 2)),
		}},
		Rect(0, 0, 4, 4),
		Polygon{
			Shell: Ring{Coords: []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}},
			Holes: []Ring{{Coords: []Point{Pt(2, 2), Pt(4, 2), Pt(4, 4), Pt(2, 4)}}},
		},
		MultiPolygon{Polygons: []Polygon{Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)}},
	}
	for _, g := range cases {
		wkt := g.WKT()
		parsed, err := ParseWKT(wkt)
		if err != nil {
			t.Errorf("%s: parse error: %v", wkt, err)
			continue
		}
		if parsed.WKT() != wkt {
			t.Errorf("round trip mismatch:\n  in:  %s\n  out: %s", wkt, parsed.WKT())
		}
		if reflect.TypeOf(parsed) != reflect.TypeOf(g) {
			t.Errorf("%s: type changed to %T", wkt, parsed)
		}
	}
}

func TestWKTExactStrings(t *testing.T) {
	cases := []struct {
		g    Geometry
		want string
	}{
		{Pt(1, 2), "POINT (1 2)"},
		{Line(Pt(0, 0), Pt(1, 1)), "LINESTRING (0 0, 1 1)"},
		{Rect(0, 0, 1, 1), "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))"},
		{MultiPoint{}, "MULTIPOINT EMPTY"},
		{LineString{}, "LINESTRING EMPTY"},
		{Polygon{}, "POLYGON EMPTY"},
		{MultiPolygon{}, "MULTIPOLYGON EMPTY"},
		{MultiLineString{}, "MULTILINESTRING EMPTY"},
	}
	for _, tc := range cases {
		if got := tc.g.WKT(); got != tc.want {
			t.Errorf("WKT = %q, want %q", got, tc.want)
		}
	}
}

func TestParseWKTVariants(t *testing.T) {
	// Multipoint without per-point parentheses.
	g, err := ParseWKT("MULTIPOINT (1 1, 2 2)")
	if err != nil {
		t.Fatal(err)
	}
	if mp := g.(MultiPoint); len(mp.Points) != 2 || !mp.Points[1].Equal(Pt(2, 2)) {
		t.Errorf("bare multipoint = %+v", mp)
	}
	// Lower-case keyword, extra whitespace, scientific notation.
	g, err = ParseWKT("  point\t( 1e1   -2.5 ) ")
	if err != nil {
		t.Fatal(err)
	}
	if p := g.(Point); !p.Equal(Pt(10, -2.5)) {
		t.Errorf("parsed point = %v", p)
	}
	// Polygon with explicit closing coordinate keeps an open ring inside.
	g, err = ParseWKT("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
	if err != nil {
		t.Fatal(err)
	}
	if poly := g.(Polygon); len(poly.Shell.Coords) != 4 {
		t.Errorf("closing coordinate not stripped: %d coords", len(poly.Shell.Coords))
	}
	// POINT EMPTY parses (as an empty multipoint, our empty-point stand-in).
	g, err = ParseWKT("POINT EMPTY")
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsEmpty() {
		t.Error("POINT EMPTY should be empty")
	}
}

func TestParseWKTErrors(t *testing.T) {
	bad := []string{
		"",
		"CIRCLE (0 0, 1)",
		"POINT (1)",
		"POINT (1 2",
		"POINT 1 2",
		"LINESTRING ((0 0, 1 1)",
		"POLYGON (0 0, 1 1)",
		"POINT (a b)",
		"POINT (1 2, 3 4)",
	}
	for _, s := range bad {
		if _, err := ParseWKT(s); err == nil {
			t.Errorf("ParseWKT(%q) should fail", s)
		} else if !strings.Contains(err.Error(), "geom: parsing WKT") {
			t.Errorf("error not wrapped: %v", err)
		}
	}
}

func TestMustParseWKT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseWKT should panic on bad input")
		}
	}()
	g := MustParseWKT("POINT (3 4)")
	if !g.(Point).Equal(Pt(3, 4)) {
		t.Error("MustParseWKT wrong result")
	}
	MustParseWKT("NOPE")
}

// foreignGeometry stands in for a Geometry implemented outside package
// geom, which AppendWKT renders through its own WKT method.
type foreignGeometry struct{ Point }

func (foreignGeometry) WKT() string { return "CIRCLE (0 0, 1)" }

func TestAppendWKT(t *testing.T) {
	holed := Polygon{
		Shell: Ring{Coords: []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}},
		Holes: []Ring{{Coords: []Point{Pt(2, 2), Pt(4, 2), Pt(4, 4)}}, {}},
	}
	cases := []struct {
		g    Geometry
		want string
	}{
		{Pt(-0.5, 1e21), "POINT (-0.5 1e+21)"},
		{Pt(1e-7, 0.30000000000000004), "POINT (1e-07 0.30000000000000004)"},
		{MultiPoint{Points: []Point{Pt(0, 0), Pt(3, 4)}}, "MULTIPOINT ((0 0), (3 4))"},
		{MultiLineString{Lines: []LineString{Line(Pt(0, 0), Pt(1, 0)), {}}}, "MULTILINESTRING ((0 0, 1 0), ())"},
		{holed, "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 2), ())"},
		{MultiPolygon{Polygons: []Polygon{Rect(0, 0, 1, 1), {}}}, "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), (()))"},
		{foreignGeometry{Pt(0, 0)}, "CIRCLE (0 0, 1)"},
		{&holed, holed.WKT()},
	}
	for _, tc := range cases {
		if got := string(AppendWKT([]byte("x="), tc.g)); got != "x="+tc.want {
			t.Errorf("AppendWKT = %q, want %q", got, "x="+tc.want)
		}
		if got := tc.g.WKT(); got != tc.want {
			t.Errorf("WKT = %q, want %q", got, tc.want)
		}
	}
}

// TestParseWKTErrorQuoteBounded: an error quotes at most the first 64
// bytes of a source, however long the source, its keyword or its bad
// number, and gives the source's length; a short source is quoted whole.
func TestParseWKTErrorQuoteBounded(t *testing.T) {
	var long strings.Builder
	long.WriteString("LINESTRING (0 0")
	for long.Len() < 1<<20 {
		long.WriteString(", 1.25 2.5")
	}
	long.WriteString(", 3 x)")
	cases := []string{
		long.String(),
		strings.Repeat("Q", 1<<20),
		"POINT (1 " + strings.Repeat("9", 1<<20) + "e)",
	}
	for _, s := range cases {
		_, err := ParseWKT(s)
		if err == nil {
			t.Fatalf("ParseWKT(%.20q...) should fail", s)
		}
		if msg := err.Error(); len(msg) >= 256 || !strings.HasPrefix(msg, "geom: parsing WKT "+strconv.Quote(s[:64])+"...") ||
			!strings.Contains(msg, fmt.Sprintf("(%d bytes)", len(s))) {
			t.Errorf("error of %d bytes: %s", len(msg), msg)
		}
	}
	if _, err := ParseWKT("POINT(huh)"); err == nil || err.Error() != `geom: parsing WKT "POINT(huh)": expected number at offset 6` {
		t.Errorf("short source: %v", err)
	}
}

// TestSizeWKTExact: on WKT this package writes, the counting pass sizes
// every arena table exactly, so ParseWKTAll fills each and never
// appends past one.
func TestSizeWKTExact(t *testing.T) {
	holed := Polygon{
		Shell: Ring{Coords: []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}},
		Holes: []Ring{{Coords: []Point{Pt(2, 2), Pt(4, 2), Pt(4, 4)}}, {Coords: []Point{Pt(6, 6), Pt(8, 6), Pt(8, 8)}}},
	}
	for _, g := range []Geometry{
		Pt(1, 2),
		MultiPoint{},
		MultiPoint{Points: []Point{Pt(0, 0), Pt(3, 4), Pt(5, 6)}},
		Line(Pt(0, 0), Pt(1, 1), Pt(2, 0.5)),
		MultiLineString{Lines: []LineString{Line(Pt(0, 0), Pt(1, 0)), Line(Pt(0, 1), Pt(1, 1), Pt(2, 2))}},
		Polygon{},
		Rect(0, 0, 4, 4),
		holed,
		MultiPolygon{Polygons: []Polygon{Rect(0, 0, 1, 1), holed, holed}},
	} {
		s := g.WKT()
		z := sizeWKT(s)
		p := wktParser{
			src:    s,
			points: make([]Point, 0, z.points),
			holes:  make([]Ring, 0, z.holes),
			lines:  make([]LineString, 0, z.lines),
			polys:  make([]Polygon, 0, z.polys),
		}
		if _, err := p.parse(); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		used := wktSizes{len(p.points), len(p.holes), len(p.lines), len(p.polys)}
		if used != z {
			t.Errorf("%s: counted %+v, parsed %+v", s, z, used)
		}
	}
}
