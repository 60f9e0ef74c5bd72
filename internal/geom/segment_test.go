package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOrientation(t *testing.T) {
	a, b := Pt(0, 0), Pt(4, 0)
	if got := Orientation(a, b, Pt(2, 1)); got != 1 {
		t.Errorf("left point orientation = %d, want 1", got)
	}
	if got := Orientation(a, b, Pt(2, -1)); got != -1 {
		t.Errorf("right point orientation = %d, want -1", got)
	}
	if got := Orientation(a, b, Pt(2, 0)); got != 0 {
		t.Errorf("collinear orientation = %d, want 0", got)
	}
	if got := Orientation(a, b, Pt(9, 0)); got != 0 {
		t.Errorf("collinear beyond orientation = %d, want 0", got)
	}
}

func TestSegmentBasics(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(3, 4)}
	if m := s.Midpoint(); !m.Equal(Pt(1.5, 2)) {
		t.Errorf("Midpoint = %v", m)
	}
	if s.IsDegenerate() {
		t.Error("nondegenerate segment reported degenerate")
	}
	if !(Segment{Pt(1, 1), Pt(1, 1)}).IsDegenerate() {
		t.Error("degenerate segment not detected")
	}
	env := s.Envelope()
	if env.MaxX != 3 || env.MaxY != 4 {
		t.Errorf("Envelope = %+v", env)
	}
}

func TestOnSegment(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(4, 4)}
	for _, p := range []Point{Pt(0, 0), Pt(4, 4), Pt(2, 2)} {
		if !s.OnSegment(p) {
			t.Errorf("OnSegment(%v) = false, want true", p)
		}
	}
	for _, p := range []Point{Pt(5, 5), Pt(-1, -1), Pt(2, 2.5)} {
		if s.OnSegment(p) {
			t.Errorf("OnSegment(%v) = true, want false", p)
		}
	}
}

func TestClosestPointAndDistance(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(4, 0)}
	cases := []struct {
		p, want Point
		dist    float64
	}{
		{Pt(2, 3), Pt(2, 0), 3},
		{Pt(-2, 0), Pt(0, 0), 2},
		{Pt(7, 4), Pt(4, 0), 5},
		{Pt(1, 0), Pt(1, 0), 0},
	}
	for _, tc := range cases {
		if got := s.ClosestPoint(tc.p); !got.Equal(tc.want) {
			t.Errorf("ClosestPoint(%v) = %v, want %v", tc.p, got, tc.want)
		}
		if got := s.DistanceToPoint(tc.p); got != tc.dist {
			t.Errorf("DistanceToPoint(%v) = %v, want %v", tc.p, got, tc.dist)
		}
	}
	deg := Segment{Pt(1, 1), Pt(1, 1)}
	if got := deg.ClosestPoint(Pt(4, 5)); !got.Equal(Pt(1, 1)) {
		t.Errorf("degenerate ClosestPoint = %v", got)
	}
}

func TestSegmentIntersectCrossing(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(4, 4)}
	o := Segment{Pt(0, 4), Pt(4, 0)}
	kind, p, _ := s.Intersect(o)
	if kind != IntersectionPoint {
		t.Fatalf("kind = %v, want point", kind)
	}
	if p.DistanceTo(Pt(2, 2)) > 1e-12 {
		t.Errorf("crossing point = %v, want (2,2)", p)
	}
}

func TestSegmentIntersectEndpointTouch(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(2, 0)}
	// o touches s at s's endpoint.
	o := Segment{Pt(2, 0), Pt(4, 3)}
	kind, p, _ := s.Intersect(o)
	if kind != IntersectionPoint || !p.Equal(Pt(2, 0)) {
		t.Errorf("endpoint touch: kind=%v p=%v", kind, p)
	}
	// o's endpoint in the middle of s (T-junction).
	o = Segment{Pt(1, 0), Pt(1, 5)}
	kind, p, _ = s.Intersect(o)
	if kind != IntersectionPoint || !p.Equal(Pt(1, 0)) {
		t.Errorf("T junction: kind=%v p=%v", kind, p)
	}
}

func TestSegmentIntersectNone(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(2, 0)}
	for _, o := range []Segment{
		{Pt(0, 1), Pt(2, 1)},   // parallel above
		{Pt(3, 0), Pt(5, 0)},   // collinear disjoint
		{Pt(3, 3), Pt(4, 4)},   // far away
		{Pt(1, 0.5), Pt(1, 2)}, // would hit if extended down
	} {
		if kind, _, _ := s.Intersect(o); kind != IntersectionNone {
			t.Errorf("Intersect(%v) = %v, want none", o, kind)
		}
	}
}

func TestSegmentIntersectCollinearOverlap(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(4, 0)}
	o := Segment{Pt(2, 0), Pt(6, 0)}
	kind, p0, p1 := s.Intersect(o)
	if kind != IntersectionOverlap {
		t.Fatalf("kind = %v, want overlap", kind)
	}
	lo, hi := p0.X, p1.X
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo != 2 || hi != 4 {
		t.Errorf("overlap = [%v, %v], want [2, 4]", lo, hi)
	}

	// Full containment of o within s.
	o = Segment{Pt(1, 0), Pt(3, 0)}
	kind, p0, p1 = s.Intersect(o)
	if kind != IntersectionOverlap {
		t.Fatalf("containment kind = %v", kind)
	}
	lo, hi = math.Min(p0.X, p1.X), math.Max(p0.X, p1.X)
	if lo != 1 || hi != 3 {
		t.Errorf("containment overlap = [%v, %v]", lo, hi)
	}

	// Collinear touching at a single point.
	o = Segment{Pt(4, 0), Pt(8, 0)}
	kind, p0, _ = s.Intersect(o)
	if kind != IntersectionPoint || !p0.Equal(Pt(4, 0)) {
		t.Errorf("collinear point touch: kind=%v p=%v", kind, p0)
	}

	// Vertical collinear overlap exercises the Y-dominant branch.
	s = Segment{Pt(0, 0), Pt(0, 4)}
	o = Segment{Pt(0, 2), Pt(0, 6)}
	kind, p0, p1 = s.Intersect(o)
	if kind != IntersectionOverlap {
		t.Fatalf("vertical overlap kind = %v", kind)
	}
	lo, hi = math.Min(p0.Y, p1.Y), math.Max(p0.Y, p1.Y)
	if lo != 2 || hi != 4 {
		t.Errorf("vertical overlap = [%v, %v]", lo, hi)
	}
}

func TestSegmentDistanceToSegment(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(4, 0)}
	cases := []struct {
		o    Segment
		want float64
	}{
		{Segment{Pt(0, 3), Pt(4, 3)}, 3},  // parallel
		{Segment{Pt(2, -1), Pt(2, 1)}, 0}, // crossing
		{Segment{Pt(6, 0), Pt(8, 0)}, 2},  // collinear gap
		{Segment{Pt(5, 1), Pt(5, 4)}, math.Sqrt(2)},
	}
	for _, tc := range cases {
		if got := s.DistanceToSegment(tc.o); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("DistanceToSegment(%v) = %v, want %v", tc.o, got, tc.want)
		}
	}
}

func TestSegmentIntersectSymmetry(t *testing.T) {
	// Property: intersection kind is symmetric in the operands.
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		s := Segment{Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))}
		o := Segment{Pt(float64(cx), float64(cy)), Pt(float64(dx), float64(dy))}
		if s.IsDegenerate() || o.IsDegenerate() {
			return true
		}
		k1, _, _ := s.Intersect(o)
		k2, _, _ := o.Intersect(s)
		return k1 == k2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSegmentIntersectPointIsOnBoth(t *testing.T) {
	// Property: a reported intersection point lies on both segments.
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		s := Segment{Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))}
		o := Segment{Pt(float64(cx), float64(cy)), Pt(float64(dx), float64(dy))}
		if s.IsDegenerate() || o.IsDegenerate() {
			return true
		}
		kind, p0, p1 := s.Intersect(o)
		switch kind {
		case IntersectionPoint:
			return s.DistanceToPoint(p0) < 1e-6 && o.DistanceToPoint(p0) < 1e-6
		case IntersectionOverlap:
			return s.DistanceToPoint(p0) < 1e-6 && o.DistanceToPoint(p0) < 1e-6 &&
				s.DistanceToPoint(p1) < 1e-6 && o.DistanceToPoint(p1) < 1e-6
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
