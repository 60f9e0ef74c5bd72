package geom

import (
	"math"
	"testing"
)

func TestDistancePointPoint(t *testing.T) {
	if got := Distance(Pt(0, 0), Pt(3, 4)); got != 5 {
		t.Errorf("Distance = %v, want 5", got)
	}
	if got := Distance(Pt(1, 1), Pt(1, 1)); got != 0 {
		t.Errorf("coincident distance = %v, want 0", got)
	}
}

func TestDistancePointPolygon(t *testing.T) {
	sq := Rect(0, 0, 4, 4)
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(2, 2), 0},  // inside
		{Pt(4, 2), 0},  // on boundary
		{Pt(7, 2), 3},  // right of
		{Pt(7, 8), 5},  // diagonal 3-4-5
		{Pt(-3, 2), 3}, // left of
	}
	for _, tc := range cases {
		if got := Distance(tc.p, sq); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Distance(%v, sq) = %v, want %v", tc.p, got, tc.want)
		}
		// Symmetry.
		if got := Distance(sq, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Distance(sq, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestDistancePolygonPolygon(t *testing.T) {
	a := Rect(0, 0, 2, 2)
	cases := []struct {
		b    Geometry
		want float64
	}{
		{Rect(1, 1, 3, 3), 0},              // overlapping
		{Rect(2, 0, 4, 2), 0},              // touching edge
		{Rect(5, 0, 6, 2), 3},              // gap
		{Rect(0.5, 0.5, 1.5, 1.5), 0},      // contained
		{Rect(5, 5, 6, 6), 3 * math.Sqrt2}, // diagonal gap
	}
	for _, tc := range cases {
		if got := Distance(a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Distance(a, %v) = %v, want %v", tc.b.WKT(), got, tc.want)
		}
	}
}

func TestDistanceLineCases(t *testing.T) {
	l := Line(Pt(0, 0), Pt(4, 0))
	if got := Distance(l, Line(Pt(0, 3), Pt(4, 3))); got != 3 {
		t.Errorf("parallel lines = %v, want 3", got)
	}
	if got := Distance(l, Line(Pt(2, -1), Pt(2, 1))); got != 0 {
		t.Errorf("crossing lines = %v, want 0", got)
	}
	if got := Distance(l, Pt(2, 2)); got != 2 {
		t.Errorf("line-point = %v, want 2", got)
	}
	// Line fully inside polygon: distance 0 via containment short-circuit.
	if got := Distance(Line(Pt(1, 1), Pt(2, 2)), Rect(0, 0, 4, 4)); got != 0 {
		t.Errorf("line in polygon = %v, want 0", got)
	}
	// Point inside polygon.
	if got := Distance(Rect(0, 0, 4, 4), Pt(1, 1)); got != 0 {
		t.Errorf("point in polygon = %v, want 0", got)
	}
}

func TestDistanceEmpty(t *testing.T) {
	if got := Distance(MultiPoint{}, Pt(0, 0)); !math.IsInf(got, 1) {
		t.Errorf("empty distance = %v, want +Inf", got)
	}
}

func TestDistanceHoledPolygon(t *testing.T) {
	donut := Polygon{
		Shell: Ring{Coords: []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}},
		Holes: []Ring{{Coords: []Point{Pt(3, 3), Pt(7, 3), Pt(7, 7), Pt(3, 7)}}},
	}
	// A point in the hole is outside the polygon but Distance is measured
	// to the point-set, so the nearest hole edge counts.
	if got := Distance(Pt(5, 5), donut); got != 2 {
		t.Errorf("hole-center distance = %v, want 2", got)
	}
	if got := Distance(Pt(1, 5), donut); got != 0 {
		t.Errorf("in-ring distance = %v, want 0", got)
	}
}
