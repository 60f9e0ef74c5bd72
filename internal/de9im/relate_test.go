package de9im

import (
	"testing"

	"repro/internal/geom"
)

// wkt is a test shorthand.
func wkt(s string) geom.Geometry { return geom.MustParseWKT(s) }

func TestRelatePolygonPolygonMatrices(t *testing.T) {
	cases := []struct {
		name string
		a, b string
		want string
	}{
		{
			"disjoint squares",
			"POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))",
			"POLYGON ((5 5, 7 5, 7 7, 5 7, 5 5))",
			"FF2FF1212",
		},
		{
			"equal squares",
			"POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))",
			"POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))",
			"2FFF1FFF2",
		},
		{
			"overlapping squares",
			"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
			"POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))",
			"212101212",
		},
		{
			"edge touch",
			"POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))",
			"POLYGON ((2 0, 4 0, 4 2, 2 2, 2 0))",
			"FF2F11212",
		},
		{
			"corner touch",
			"POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))",
			"POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))",
			"FF2F01212",
		},
		{
			"strict containment (a contains b)",
			"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
			"POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))",
			"212FF1FF2",
		},
		{
			"covers with shared edge",
			"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
			"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
			"212F11FF2",
		},
		{
			"strict within (a within b)",
			"POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))",
			"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
			"2FF1FF212",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := Relate(wkt(tc.a), wkt(tc.b))
			if m.String() != tc.want {
				t.Errorf("Relate = %s, want %s", m, tc.want)
			}
		})
	}
}

func TestRelateSymmetryTranspose(t *testing.T) {
	pairs := [][2]string{
		{"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))"},
		{"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", "POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))"},
		{"LINESTRING (0 0, 4 0)", "POLYGON ((1 -1, 3 -1, 3 1, 1 1, 1 -1))"},
		{"POINT (1 1)", "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"},
		{"LINESTRING (0 0, 4 4)", "LINESTRING (0 4, 4 0)"},
	}
	for _, pair := range pairs {
		a, b := wkt(pair[0]), wkt(pair[1])
		ab := Relate(a, b)
		ba := Relate(b, a)
		if ab.Transpose() != ba {
			t.Errorf("Relate(%s, %s) = %s but reverse = %s (not transpose)",
				pair[0], pair[1], ab, ba)
		}
	}
}

func TestRelatePointCases(t *testing.T) {
	sq := "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"
	cases := []struct {
		name string
		a, b string
		want string
	}{
		{"point inside polygon", "POINT (2 2)", sq, "0FFFFF212"},
		{"point on polygon boundary", "POINT (4 2)", sq, "F0FFFF212"},
		{"point outside polygon", "POINT (9 9)", sq, "FF0FFF212"},
		{"point on line interior", "POINT (2 0)", "LINESTRING (0 0, 4 0)", "0FFFFF102"},
		{"point on line endpoint", "POINT (0 0)", "LINESTRING (0 0, 4 0)", "F0FFFF102"},
		{"equal points", "POINT (1 1)", "POINT (1 1)", "0FFFFFFF2"},
		{"distinct points", "POINT (1 1)", "POINT (2 2)", "FF0FFF0F2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := Relate(wkt(tc.a), wkt(tc.b))
			if m.String() != tc.want {
				t.Errorf("Relate = %s, want %s", m, tc.want)
			}
		})
	}
}

func TestRelateLinePolygon(t *testing.T) {
	sq := "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"
	cases := []struct {
		name string
		a    string
		want string
	}{
		{"line crossing through", "LINESTRING (-2 2, 6 2)", "101FF0212"},
		{"line inside", "LINESTRING (1 1, 3 3)", "1FF0FF212"},
		{"line along boundary", "LINESTRING (0 0, 4 0)", "F1FF0F212"},
		{"line touching boundary at endpoint", "LINESTRING (4 2, 8 2)", "FF1F00212"},
		{"line outside", "LINESTRING (5 5, 8 8)", "FF1FF0212"},
		{"line inside with endpoint on boundary", "LINESTRING (0 2, 2 2)", "1FF00F212"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := Relate(wkt(tc.a), wkt(sq))
			if m.String() != tc.want {
				t.Errorf("Relate = %s, want %s", m, tc.want)
			}
		})
	}
}

func TestRelateLineLine(t *testing.T) {
	cases := []struct {
		name string
		a, b string
		want string
	}{
		{"crossing X", "LINESTRING (0 0, 4 4)", "LINESTRING (0 4, 4 0)", "0F1FF0102"},
		{"equal lines", "LINESTRING (0 0, 4 0)", "LINESTRING (0 0, 4 0)", "1FFF0FFF2"},
		{"collinear partial overlap", "LINESTRING (0 0, 4 0)", "LINESTRING (2 0, 6 0)", "1010F0102"},
		{"endpoint-to-endpoint touch", "LINESTRING (0 0, 2 0)", "LINESTRING (2 0, 4 0)", "FF1F00102"},
		{"T junction (endpoint on interior)", "LINESTRING (0 0, 4 0)", "LINESTRING (2 0, 2 4)", "F01FF0102"},
		{"disjoint", "LINESTRING (0 0, 1 0)", "LINESTRING (0 5, 1 5)", "FF1FF0102"},
		{"sub-segment within", "LINESTRING (1 0, 3 0)", "LINESTRING (0 0, 4 0)", "1FF0FF102"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := Relate(wkt(tc.a), wkt(tc.b))
			if m.String() != tc.want {
				t.Errorf("Relate = %s, want %s", m, tc.want)
			}
		})
	}
}

func TestRelateEmptyOperands(t *testing.T) {
	sq := wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	empty := geom.MultiPoint{}
	m := Relate(sq, empty)
	if m.String() != "FF2FF1FF2" {
		t.Errorf("area vs empty = %s", m)
	}
	m = Relate(empty, sq)
	if m.String() != "FFFFFF212" {
		t.Errorf("empty vs area = %s", m)
	}
	m = Relate(empty, empty)
	if m.String() != "FFFFFFFF2" {
		t.Errorf("empty vs empty = %s", m)
	}
	line := wkt("LINESTRING (0 0, 1 0)")
	m = Relate(line, empty)
	if m.String() != "FF1FF0FF2" {
		t.Errorf("line vs empty = %s", m)
	}
	pt := wkt("POINT (0 0)")
	m = Relate(pt, empty)
	if m.String() != "FF0FFFFF2" {
		t.Errorf("point vs empty = %s", m)
	}
	// Closed line has empty boundary even against an empty operand.
	closed := wkt("LINESTRING (0 0, 1 0, 1 1, 0 0)")
	m = Relate(closed, empty)
	if m.String() != "FF1FFFFF2" {
		t.Errorf("closed line vs empty = %s", m)
	}
}

func TestRelateDonutCases(t *testing.T) {
	donut := "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (3 3, 7 3, 7 7, 3 7, 3 3))"
	// A polygon exactly filling the hole: boundaries coincide, interiors
	// are disjoint (the hole is the donut's exterior).
	filler := "POLYGON ((3 3, 7 3, 7 7, 3 7, 3 3))"
	m := Relate(wkt(filler), wkt(donut))
	if m[Int][Int] != F {
		t.Errorf("filler/donut II = %v, want F (matrix %s)", m[Int][Int], m)
	}
	if m[Int][Ext] != D2 {
		t.Errorf("filler/donut IE = %v, want 2 (matrix %s)", m[Int][Ext], m)
	}
	if m.String() != "FF2F1F212" {
		t.Errorf("filler/donut = %s, want FF2F1F212 (touches)", m)
	}
	// A small island strictly inside the hole: disjoint from the donut.
	island := "POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))"
	m = Relate(wkt(island), wkt(donut))
	if !m.IsDisjoint() {
		t.Errorf("island/donut = %s, want disjoint", m)
	}
	// A polygon covering donut + hole: contains must fail (the hole pokes
	// through), but interiors do intersect.
	cover := "POLYGON ((-1 -1, 11 -1, 11 11, -1 11, -1 -1))"
	m = Relate(wkt(cover), wkt(donut))
	if m[Int][Int] != D2 {
		t.Errorf("cover/donut II = %v (matrix %s)", m[Int][Int], m)
	}
	if m.String() != "212FF1FF2" {
		t.Errorf("cover/donut = %s, want 212FF1FF2 (contains)", m)
	}
	// Point in the hole is exterior to the donut.
	m = Relate(wkt("POINT (5 5)"), wkt(donut))
	if m.String() != "FF0FFF212" {
		t.Errorf("hole point = %s", m)
	}
}

func TestRelateMultiPoint(t *testing.T) {
	sq := wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	// One point in, one point out: OGC crosses for P/A.
	mp := geom.MultiPoint{Points: []geom.Point{geom.Pt(2, 2), geom.Pt(9, 9)}}
	m := Relate(mp, sq)
	if m.String() != "0F0FFF212" {
		t.Errorf("multipoint partial = %s", m)
	}
}

func TestRelateVertexOnlyRingTouch(t *testing.T) {
	// Two triangles sharing exactly one vertex; only the node-point pass
	// can see the 0-dimensional boundary contact.
	a := wkt("POLYGON ((0 0, 2 0, 0 2, 0 0))")
	b := wkt("POLYGON ((2 0, 4 0, 4 2, 2 0))")
	m := Relate(a, b)
	if m[Bnd][Bnd] != D0 {
		t.Errorf("shared vertex BB = %v (matrix %s), want 0", m[Bnd][Bnd], m)
	}
	if m.String() != "FF2F01212" {
		t.Errorf("shared vertex = %s, want FF2F01212 (touches)", m)
	}
}

func TestDistanceZeroExactlyWhenIntersecting(t *testing.T) {
	// The distance relations and the matrix see the same contact: two
	// geometries are at distance 0 exactly when their matrix is not
	// disjoint, in either order.
	sq := "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"
	cases := []struct {
		name       string
		a, b       geom.Geometry
		intersects bool
	}{
		{"overlapping squares", wkt(sq), wkt("POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))"), true},
		{"squares sharing an edge", wkt(sq), wkt("POLYGON ((2 0, 4 0, 4 2, 2 2, 2 0))"), true},
		{"squares apart", wkt(sq), wkt("POLYGON ((3 3, 4 3, 4 4, 3 4, 3 3))"), false},
		{"point inside", wkt("POINT (1 1)"), wkt(sq), true},
		{"point outside", wkt("POINT (5 5)"), wkt(sq), false},
		{"line through", wkt("LINESTRING (-1 1, 3 1)"), wkt(sq), true},
		{"point in a hole", wkt("POINT (5 5)"),
			wkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (3 3, 7 3, 7 7, 3 7, 3 3))"), false},
		{"empty operand", geom.MultiPoint{}, wkt(sq), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range [][2]geom.Geometry{{tc.a, tc.b}, {tc.b, tc.a}} {
				m := Relate(p[0], p[1])
				d := geom.Distance(p[0], p[1])
				if !m.IsDisjoint() != tc.intersects || (d == 0) != tc.intersects {
					t.Errorf("Relate(%s, %s) = %s and Distance = %v, want intersecting %v",
						p[0].WKT(), p[1].WKT(), m, d, tc.intersects)
				}
			}
		})
	}
}
