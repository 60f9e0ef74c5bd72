package geom

import (
	"testing"
	"testing/quick"
)

func TestLocationString(t *testing.T) {
	if Interior.String() != "interior" || Boundary.String() != "boundary" ||
		Exterior.String() != "exterior" {
		t.Error("Location strings wrong")
	}
	if Location(9).String() != "geom.Location(9)" {
		t.Error("unknown location string wrong")
	}
}

func TestLocateInRing(t *testing.T) {
	sq := Ring{Coords: []Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)}}
	cases := []struct {
		p    Point
		want Location
	}{
		{Pt(2, 2), Interior},
		{Pt(0, 0), Boundary},  // corner
		{Pt(2, 0), Boundary},  // edge
		{Pt(4, 4), Boundary},  // far corner
		{Pt(5, 2), Exterior},  // right of
		{Pt(-1, 2), Exterior}, // left of
		{Pt(2, 5), Exterior},
		{Pt(2, -1), Exterior},
	}
	for _, tc := range cases {
		if got := LocateInRing(tc.p, sq); got != tc.want {
			t.Errorf("LocateInRing(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if LocateInRing(Pt(0, 0), Ring{Coords: []Point{Pt(0, 0), Pt(1, 1)}}) != Exterior {
		t.Error("degenerate ring should locate everything exterior")
	}
}

func TestLocateInRingConcave(t *testing.T) {
	// A "C" shape opening to the right.
	c := Ring{Coords: []Point{
		Pt(0, 0), Pt(6, 0), Pt(6, 2), Pt(2, 2), Pt(2, 4), Pt(6, 4), Pt(6, 6), Pt(0, 6),
	}}
	if got := LocateInRing(Pt(4, 3), c); got != Exterior {
		t.Errorf("notch point = %v, want exterior", got)
	}
	if got := LocateInRing(Pt(1, 3), c); got != Interior {
		t.Errorf("spine point = %v, want interior", got)
	}
	if got := LocateInRing(Pt(4, 1), c); got != Interior {
		t.Errorf("lower arm point = %v, want interior", got)
	}
}

func TestLocateInRingVertexRay(t *testing.T) {
	// The +X ray from the query point passes exactly through a vertex of
	// the diamond; the half-open rule must count it once.
	diamond := Ring{Coords: []Point{Pt(2, 0), Pt(4, 2), Pt(2, 4), Pt(0, 2)}}
	if got := LocateInRing(Pt(1, 2), diamond); got != Interior {
		t.Errorf("point left of vertex = %v, want interior", got)
	}
	if got := LocateInRing(Pt(-1, 2), diamond); got != Exterior {
		t.Errorf("point outside, ray through two vertices = %v, want exterior", got)
	}
}

func TestLocateInPolygonWithHole(t *testing.T) {
	poly := Polygon{
		Shell: Ring{Coords: []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}},
		Holes: []Ring{{Coords: []Point{Pt(3, 3), Pt(7, 3), Pt(7, 7), Pt(3, 7)}}},
	}
	cases := []struct {
		p    Point
		want Location
	}{
		{Pt(1, 1), Interior},
		{Pt(5, 5), Exterior}, // inside the hole
		{Pt(3, 5), Boundary}, // on the hole ring
		{Pt(0, 5), Boundary}, // on the shell
		{Pt(11, 5), Exterior},
	}
	for _, tc := range cases {
		if got := LocateInPolygon(tc.p, poly); got != tc.want {
			t.Errorf("LocateInPolygon(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestLocateOnLineString(t *testing.T) {
	l := Line(Pt(0, 0), Pt(4, 0), Pt(4, 4))
	cases := []struct {
		p    Point
		want Location
	}{
		{Pt(0, 0), Boundary}, // start
		{Pt(4, 4), Boundary}, // end
		{Pt(2, 0), Interior},
		{Pt(4, 0), Interior}, // internal vertex
		{Pt(2, 2), Exterior},
	}
	for _, tc := range cases {
		if got := LocateOnLineString(tc.p, l); got != tc.want {
			t.Errorf("LocateOnLineString(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Closed linestring has no boundary.
	ring := Line(Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 0))
	if got := LocateOnLineString(Pt(0, 0), ring); got != Interior {
		t.Errorf("closed line start = %v, want interior", got)
	}
	if got := LocateOnLineString(Pt(1, 1), LineString{}); got != Exterior {
		t.Errorf("empty line = %v, want exterior", got)
	}
}

func TestLocateGeneric(t *testing.T) {
	if Locate(Pt(1, 1), Pt(1, 1)) != Interior {
		t.Error("point self-locate")
	}
	if Locate(Pt(1, 2), Pt(1, 1)) != Exterior {
		t.Error("point other-locate")
	}
	mp := MultiPoint{Points: []Point{Pt(0, 0), Pt(2, 2)}}
	if Locate(Pt(2, 2), mp) != Interior || Locate(Pt(1, 1), mp) != Exterior {
		t.Error("multipoint locate")
	}
	mpoly := MultiPolygon{Polygons: []Polygon{Rect(0, 0, 2, 2), Rect(4, 0, 6, 2)}}
	if Locate(Pt(5, 1), mpoly) != Interior {
		t.Error("multipolygon interior")
	}
	if Locate(Pt(4, 1), mpoly) != Boundary {
		t.Error("multipolygon boundary")
	}
	if Locate(Pt(3, 1), mpoly) != Exterior {
		t.Error("multipolygon exterior")
	}
}

func TestLocateMultiLineMod2(t *testing.T) {
	// Two lines sharing an endpoint: the shared point occurs twice, so by
	// the mod-2 rule it is interior to the multilinestring.
	ml := MultiLineString{Lines: []LineString{
		Line(Pt(0, 0), Pt(2, 0)),
		Line(Pt(2, 0), Pt(4, 0)),
	}}
	if got := Locate(Pt(2, 0), ml); got != Interior {
		t.Errorf("shared endpoint = %v, want interior (mod-2)", got)
	}
	if got := Locate(Pt(0, 0), ml); got != Boundary {
		t.Errorf("free endpoint = %v, want boundary", got)
	}
	if got := Locate(Pt(1, 0), ml); got != Interior {
		t.Errorf("segment interior = %v, want interior", got)
	}
	// Three lines meeting at a point: odd count, boundary.
	ml.Lines = append(ml.Lines, Line(Pt(2, 0), Pt(2, 5)))
	if got := Locate(Pt(2, 0), ml); got != Boundary {
		t.Errorf("triple junction = %v, want boundary (mod-2)", got)
	}
}

func TestInteriorPoint(t *testing.T) {
	for _, poly := range []Polygon{Rect(0, 0, 4, 4), Poly(Pt(0, 0), Pt(4, 0), Pt(0, 4))} {
		p, ok := polygonInteriorPoint(poly)
		if !ok {
			t.Errorf("%s: no interior point", poly.WKT())
			continue
		}
		if Locate(p, poly) == Exterior {
			t.Errorf("%s: interior point %v is exterior", poly.WKT(), p)
		}
	}
	if _, ok := polygonInteriorPoint(Polygon{}); ok {
		t.Error("empty polygon should have no interior point")
	}
}

func TestInteriorPointConcaveAndHoled(t *testing.T) {
	// U-shaped polygon whose centroid falls in the notch.
	u := Poly(
		Pt(0, 0), Pt(6, 0), Pt(6, 6), Pt(4, 6), Pt(4, 2), Pt(2, 2), Pt(2, 6), Pt(0, 6),
	)
	p, ok := polygonInteriorPoint(u)
	if !ok {
		t.Fatal("no interior point for U polygon")
	}
	if LocateInPolygon(p, u) != Interior {
		t.Errorf("U interior point %v not interior", p)
	}
	// Donut whose centroid falls in the hole.
	donut := Polygon{
		Shell: Ring{Coords: []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}},
		Holes: []Ring{{Coords: []Point{Pt(2, 2), Pt(8, 2), Pt(8, 8), Pt(2, 8)}}},
	}
	p, ok = polygonInteriorPoint(donut)
	if !ok {
		t.Fatal("no interior point for donut")
	}
	if LocateInPolygon(p, donut) != Interior {
		t.Errorf("donut interior point %v not interior", p)
	}
}

func TestLocateInRingPropertyGrid(t *testing.T) {
	// Property: for a random convex quadrilateral-ish ring (rectangle),
	// LocateInRing agrees with direct coordinate comparison.
	f := func(px, py int8, x1, y1, x2, y2 int8) bool {
		minX, maxX := float64(x1), float64(x2)
		if minX > maxX {
			minX, maxX = maxX, minX
		}
		minY, maxY := float64(y1), float64(y2)
		if minY > maxY {
			minY, maxY = maxY, minY
		}
		if maxX-minX < 1 || maxY-minY < 1 {
			return true
		}
		r := Ring{Coords: []Point{
			Pt(minX, minY), Pt(maxX, minY), Pt(maxX, maxY), Pt(minX, maxY),
		}}
		p := Pt(float64(px), float64(py))
		got := LocateInRing(p, r)
		var want Location
		switch {
		case p.X > minX && p.X < maxX && p.Y > minY && p.Y < maxY:
			want = Interior
		case p.X >= minX && p.X <= maxX && p.Y >= minY && p.Y <= maxY:
			want = Boundary
		default:
			want = Exterior
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
