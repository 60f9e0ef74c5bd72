package geom

import (
	"math"
	"reflect"
	"testing"
)

func TestPointBasics(t *testing.T) {
	p := Pt(3, 4)
	if p.Dimension() != 0 || p.IsEmpty() {
		t.Fatalf("point metadata wrong: %+v", p)
	}
	if d := p.DistanceTo(Pt(0, 0)); d != 5 {
		t.Errorf("DistanceTo = %v, want 5", d)
	}
	if !p.Equal(Pt(3, 4)) || p.Equal(Pt(3, 5)) {
		t.Error("Equal misbehaves")
	}
	if v := p.Sub(Pt(1, 1)); !v.Equal(Pt(2, 3)) {
		t.Errorf("Sub = %v", v)
	}
	if v := p.Add(Pt(1, 1)); !v.Equal(Pt(4, 5)) {
		t.Errorf("Add = %v", v)
	}
	if v := p.Scale(2); !v.Equal(Pt(6, 8)) {
		t.Errorf("Scale = %v", v)
	}
	if d := Pt(1, 0).Dot(Pt(0, 1)); d != 0 {
		t.Errorf("Dot = %v", d)
	}
	if c := Pt(1, 0).Cross(Pt(0, 1)); c != 1 {
		t.Errorf("Cross = %v", c)
	}
	env := p.Envelope()
	if env.MinX != 3 || env.MaxX != 3 || env.MinY != 4 || env.MaxY != 4 {
		t.Errorf("point envelope = %+v", env)
	}
}

func TestLineStringBasics(t *testing.T) {
	l := Line(Pt(0, 0), Pt(3, 0), Pt(3, 4))
	if l.Dimension() != 1 {
		t.Fatal("linestring metadata wrong")
	}
	if l.IsEmpty() {
		t.Error("non-empty line reported empty")
	}
	if l.IsClosed() {
		t.Error("open line reported closed")
	}
	if got := l.NumSegments(); got != 2 {
		t.Errorf("NumSegments = %d, want 2", got)
	}
	seg := l.Segment(1)
	if !seg.A.Equal(Pt(3, 0)) || !seg.B.Equal(Pt(3, 4)) {
		t.Errorf("Segment(1) = %+v", seg)
	}
	closed := Line(Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 0))
	if !closed.IsClosed() {
		t.Error("closed line reported open")
	}
	if (LineString{}).IsEmpty() != true {
		t.Error("empty line not empty")
	}
	if (LineString{Coords: []Point{Pt(0, 0)}}).NumSegments() != 0 {
		t.Error("single-coordinate line should have 0 segments")
	}
}

func TestRingAreaAndOrientation(t *testing.T) {
	ccw := Ring{Coords: []Point{Pt(0, 0), Pt(4, 0), Pt(4, 3), Pt(0, 3)}}
	if got := ccw.SignedArea(); got != 12 {
		t.Errorf("SignedArea = %v, want 12", got)
	}
	cw := Ring{Coords: []Point{Pt(0, 0), Pt(0, 3), Pt(4, 3), Pt(4, 0)}}
	if got := cw.SignedArea(); got != -12 {
		t.Errorf("SignedArea = %v, want -12", got)
	}
	if got := cw.Area(); got != 12 {
		t.Errorf("Area = %v, want 12", got)
	}
	if (Ring{Coords: []Point{Pt(0, 0), Pt(1, 1)}}).SignedArea() != 0 {
		t.Error("degenerate ring area should be 0")
	}
	tri := Ring{Coords: []Point{Pt(0, 0), Pt(4, 0), Pt(0, 3)}}
	if got := tri.NumSegments(); got != 3 {
		t.Errorf("triangle NumSegments = %d, want 3", got)
	}
	last := tri.Segment(2)
	if !last.A.Equal(Pt(0, 3)) || !last.B.Equal(Pt(0, 0)) {
		t.Errorf("wrap-around segment = %+v", last)
	}
}

func TestPolygonAreaWithHole(t *testing.T) {
	poly := Polygon{
		Shell: Ring{Coords: []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}},
		Holes: []Ring{{Coords: []Point{Pt(2, 2), Pt(4, 2), Pt(4, 4), Pt(2, 4)}}},
	}
	if got := poly.Area(); got != 96 {
		t.Errorf("Area = %v, want 96", got)
	}
	if poly.Dimension() != 2 {
		t.Error("polygon metadata wrong")
	}
	rings := poly.Rings()
	if len(rings) != 2 {
		t.Fatalf("Rings() returned %d rings", len(rings))
	}
}

func TestRectHelper(t *testing.T) {
	r := Rect(1, 2, 5, 6)
	if got := r.Area(); got != 16 {
		t.Errorf("Rect area = %v, want 16", got)
	}
	env := r.Envelope()
	if env.MinX != 1 || env.MinY != 2 || env.MaxX != 5 || env.MaxY != 6 {
		t.Errorf("Rect envelope = %+v", env)
	}
}

func TestPolygonCentroid(t *testing.T) {
	sq := Rect(0, 0, 4, 4)
	c := sq.Centroid()
	if math.Abs(c.X-2) > 1e-12 || math.Abs(c.Y-2) > 1e-12 {
		t.Errorf("square centroid = %v, want (2,2)", c)
	}
	// Clockwise shell must give the same centroid.
	cwSq := Poly(Pt(0, 0), Pt(0, 4), Pt(4, 4), Pt(4, 0))
	c = cwSq.Centroid()
	if math.Abs(c.X-2) > 1e-12 || math.Abs(c.Y-2) > 1e-12 {
		t.Errorf("cw square centroid = %v, want (2,2)", c)
	}
	// Hole pulls centroid away.
	holed := Polygon{
		Shell: Ring{Coords: []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}},
		Holes: []Ring{{Coords: []Point{Pt(6, 4), Pt(8, 4), Pt(8, 6), Pt(6, 6)}}},
	}
	c = holed.Centroid()
	if c.X >= 5 {
		t.Errorf("hole on the right should pull centroid left, got %v", c)
	}
	// Degenerate polygon falls back to coordinate mean.
	line := Poly(Pt(0, 0), Pt(2, 0), Pt(4, 0))
	c = line.Centroid()
	if math.Abs(c.X-2) > 1e-12 || c.Y != 0 {
		t.Errorf("degenerate centroid = %v", c)
	}
}

func TestMultiGeometries(t *testing.T) {
	mp := MultiPoint{Points: []Point{Pt(0, 0), Pt(2, 2)}}
	if mp.IsEmpty() || mp.Dimension() != 0 {
		t.Error("multipoint metadata wrong")
	}
	env := mp.Envelope()
	if env.MinX != 0 || env.MaxX != 2 {
		t.Errorf("multipoint envelope = %+v", env)
	}
	if !(MultiPoint{}).IsEmpty() {
		t.Error("empty multipoint")
	}

	ml := MultiLineString{Lines: []LineString{
		Line(Pt(0, 0), Pt(1, 0)),
		Line(Pt(0, 1), Pt(3, 1)),
	}}
	if ml.Dimension() != 1 {
		t.Error("multiline metadata wrong")
	}

	mpoly := MultiPolygon{Polygons: []Polygon{Rect(0, 0, 1, 1), Rect(2, 0, 4, 1)}}
	if mpoly.Dimension() != 2 {
		t.Error("multipolygon metadata wrong")
	}
	env = mpoly.Envelope()
	if env.MaxX != 4 {
		t.Errorf("multipolygon envelope = %+v", env)
	}
}

func TestTranslate(t *testing.T) {
	cases := []Geometry{
		Pt(1, 1),
		MultiPoint{Points: []Point{Pt(0, 0), Pt(1, 1)}},
		Line(Pt(0, 0), Pt(1, 0)),
		MultiLineString{Lines: []LineString{Line(Pt(0, 0), Pt(1, 0))}},
		Rect(0, 0, 2, 2),
		MultiPolygon{Polygons: []Polygon{Rect(0, 0, 1, 1)}},
	}
	for _, g := range cases {
		moved := Translate(g, 10, 20)
		wantEnv := g.Envelope()
		gotEnv := moved.Envelope()
		if gotEnv.MinX != wantEnv.MinX+10 || gotEnv.MinY != wantEnv.MinY+20 {
			t.Errorf("%T: translate envelope = %+v", g, gotEnv)
		}
		if reflect.TypeOf(moved) != reflect.TypeOf(g) {
			t.Errorf("translate changed type of %T to %T", g, moved)
		}
	}
	// Translation must not share storage with the original.
	l := Line(Pt(0, 0), Pt(1, 0))
	moved := Translate(l, 1, 1).(LineString)
	moved.Coords[0] = Pt(99, 99)
	if l.Coords[0].X == 99 {
		t.Error("Translate shares coordinate storage with input")
	}
}

func TestCentroidGeneric(t *testing.T) {
	if c := Centroid(Pt(5, 6)); !c.Equal(Pt(5, 6)) {
		t.Errorf("point centroid = %v", c)
	}
	if c := Centroid(MultiPoint{Points: []Point{Pt(0, 0), Pt(2, 0)}}); !c.Equal(Pt(1, 0)) {
		t.Errorf("multipoint centroid = %v", c)
	}
	if c := Centroid(MultiPoint{}); !c.Equal(Pt(0, 0)) {
		t.Errorf("empty multipoint centroid = %v", c)
	}
	// Line centroid is length-weighted: the long segment dominates.
	c := Centroid(Line(Pt(0, 0), Pt(10, 0), Pt(10, 1)))
	if c.X <= 4 {
		t.Errorf("line centroid = %v, expected x > 4", c)
	}
	if c := Centroid(Rect(0, 0, 2, 2)); !c.Equal(Pt(1, 1)) {
		t.Errorf("rect centroid = %v", c)
	}
	mp := MultiPolygon{Polygons: []Polygon{Rect(0, 0, 2, 2), Rect(10, 0, 12, 2)}}
	c = Centroid(mp)
	if math.Abs(c.X-6) > 1e-9 || math.Abs(c.Y-1) > 1e-9 {
		t.Errorf("multipolygon centroid = %v, want (6,1)", c)
	}
	// Degenerate line collection falls back to a coordinate.
	if c := Centroid(Line(Pt(3, 3), Pt(3, 3))); !c.Equal(Pt(3, 3)) {
		t.Errorf("degenerate line centroid = %v", c)
	}
}
