package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestConvexHullSquarePlusInterior(t *testing.T) {
	pts := []Point{
		Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4), // corners
		Pt(2, 2), Pt(1, 3), Pt(3, 1), // interior
		Pt(2, 0), // edge midpoint (collinear, must be dropped)
	}
	hull := ConvexHull(pts)
	if got := len(hull.Coords); got != 4 {
		t.Fatalf("hull size = %d, want 4 (%v)", got, hull.Coords)
	}
	if hull.SignedArea() <= 0 {
		t.Error("hull must be counterclockwise")
	}
	if hull.Area() != 16 {
		t.Errorf("hull area = %v, want 16", hull.Area())
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if got := ConvexHull(nil); len(got.Coords) != 0 {
		t.Error("empty input")
	}
	if got := ConvexHull([]Point{Pt(1, 1), Pt(1, 1)}); len(got.Coords) != 1 {
		t.Errorf("duplicate points hull = %v", got.Coords)
	}
	// Collinear points: hull has no area; result keeps < 3 effective
	// orientation but must not panic.
	got := ConvexHull([]Point{Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(3, 0)})
	if got.Area() != 0 {
		t.Errorf("collinear hull area = %v", got.Area())
	}
}

func TestConvexHullContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		pts := make([]Point, 30)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		hull := ConvexHull(pts)
		if len(hull.Coords) < 3 {
			t.Fatal("degenerate hull from random points")
		}
		for _, p := range pts {
			if LocateInRing(p, hull) == Exterior {
				t.Fatalf("point %v outside its own hull", p)
			}
		}
		// Hull must be convex: every triple turns the same way.
		n := len(hull.Coords)
		for i := 0; i < n; i++ {
			o := Orientation(hull.Coords[i], hull.Coords[(i+1)%n], hull.Coords[(i+2)%n])
			if o < 0 {
				t.Fatal("hull is not convex/CCW")
			}
		}
	}
}

func TestAffineBasics(t *testing.T) {
	id := IdentityAffine()
	p := Pt(3, 4)
	if !id.Apply(p).Equal(p) {
		t.Error("identity transform changed a point")
	}
	if got := TranslateAffine(1, 2).Apply(p); !got.Equal(Pt(4, 6)) {
		t.Errorf("translate = %v", got)
	}
	if got := ScaleAffine(2, 3).Apply(p); !got.Equal(Pt(6, 12)) {
		t.Errorf("scale = %v", got)
	}
	got := RotateAffine(math.Pi / 2).Apply(Pt(1, 0))
	if got.DistanceTo(Pt(0, 1)) > 1e-12 {
		t.Errorf("rotate 90° = %v, want (0,1)", got)
	}
}

func TestAffineComposition(t *testing.T) {
	// Then: a.Then(b) applies a first.
	move := TranslateAffine(1, 0)
	scale := ScaleAffine(2, 2)
	p := Pt(1, 1)
	// Move then scale: (1,1) -> (2,1) -> (4,2).
	if got := move.Then(scale).Apply(p); !got.Equal(Pt(4, 2)) {
		t.Errorf("move.Then(scale) = %v, want (4,2)", got)
	}
	// Scale then move: (1,1) -> (2,2) -> (3,2).
	if got := scale.Then(move).Apply(p); !got.Equal(Pt(3, 2)) {
		t.Errorf("scale.Then(move) = %v, want (3,2)", got)
	}
}

func TestRotateAround(t *testing.T) {
	rot := RotateAround(math.Pi, Pt(2, 2))
	got := rot.Apply(Pt(3, 2))
	if got.DistanceTo(Pt(1, 2)) > 1e-12 {
		t.Errorf("rotate 180° around (2,2): %v, want (1,2)", got)
	}
	// The center is a fixed point.
	if rot.Apply(Pt(2, 2)).DistanceTo(Pt(2, 2)) > 1e-12 {
		t.Error("rotation center moved")
	}
}

func TestTransformGeometryTypes(t *testing.T) {
	tr := TranslateAffine(10, 20)
	cases := []Geometry{
		Pt(1, 1),
		MultiPoint{Points: []Point{Pt(0, 0)}},
		Line(Pt(0, 0), Pt(1, 0)),
		MultiLineString{Lines: []LineString{Line(Pt(0, 0), Pt(1, 0))}},
		Polygon{
			Shell: Ring{Coords: []Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)}},
			Holes: []Ring{{Coords: []Point{Pt(1, 1), Pt(2, 1), Pt(2, 2), Pt(1, 2)}}},
		},
		MultiPolygon{Polygons: []Polygon{Rect(0, 0, 1, 1)}},
	}
	for _, g := range cases {
		moved := Transform(g, tr)
		if reflect.TypeOf(moved) != reflect.TypeOf(g) {
			t.Errorf("%T: type changed to %T", g, moved)
		}
		wantEnv := g.Envelope()
		gotEnv := moved.Envelope()
		if gotEnv.MinX != wantEnv.MinX+10 || gotEnv.MinY != wantEnv.MinY+20 {
			t.Errorf("%T: envelope = %+v", g, gotEnv)
		}
	}
}

func TestRotationPreservesAreaAndRelations(t *testing.T) {
	// Property: rotation preserves polygon area.
	f := func(theta float64) bool {
		theta = math.Mod(theta, 2*math.Pi)
		if math.IsNaN(theta) {
			return true
		}
		poly := Rect(0, 0, 4, 2)
		rotated := Transform(poly, RotateAround(theta, Pt(2, 1))).(Polygon)
		return math.Abs(rotated.Area()-8) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
