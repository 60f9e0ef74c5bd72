package geom

import "math"

// Eps is the tolerance used by the coordinate comparisons in this package.
// Synthetic coordinates in this repository are small integers and halves,
// so a fixed absolute tolerance is appropriate.
const Eps = 1e-9

// Segment is a directed straight line segment.
type Segment struct {
	A, B Point
}

// Envelope returns the segment's bounding box.
func (s Segment) Envelope() Envelope { return NewEnvelope(s.A, s.B) }

// Midpoint returns the parametric midpoint of the segment.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// IsDegenerate reports whether the segment has (near-)zero length.
func (s Segment) IsDegenerate() bool { return s.A.DistanceTo(s.B) <= Eps }

// Orientation classifies point c relative to the directed line a→b:
// +1 when counterclockwise (left), -1 when clockwise (right), 0 when
// collinear within tolerance. The tolerance scales with the magnitude of
// the operands so that long segments do not misclassify nearby points.
func Orientation(a, b, c Point) int {
	det := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	scale := math.Abs(b.X-a.X) + math.Abs(b.Y-a.Y) +
		math.Abs(c.X-a.X) + math.Abs(c.Y-a.Y)
	tol := Eps * (1 + scale)
	switch {
	case det > tol:
		return 1
	case det < -tol:
		return -1
	}
	return 0
}

// OnSegment reports whether point p lies on segment s, endpoints included.
func (s Segment) OnSegment(p Point) bool {
	if Orientation(s.A, s.B, p) != 0 {
		return false
	}
	return s.Envelope().Buffer(Eps).ContainsPoint(p)
}

// ClosestPoint returns the point on the segment closest to p.
func (s Segment) ClosestPoint(p Point) Point {
	d := s.B.Sub(s.A)
	den := d.Dot(d)
	if den == 0 {
		return s.A
	}
	t := p.Sub(s.A).Dot(d) / den
	if t <= 0 {
		return s.A
	}
	if t >= 1 {
		return s.B
	}
	return s.A.Add(d.Scale(t))
}

// DistanceToPoint returns the distance from p to the segment.
func (s Segment) DistanceToPoint(p Point) float64 {
	return p.DistanceTo(s.ClosestPoint(p))
}

// DistanceToSegment returns the minimal distance between two segments
// (0 when they intersect).
func (s Segment) DistanceToSegment(o Segment) float64 {
	if kind, _, _ := s.Intersect(o); kind != IntersectionNone {
		return 0
	}
	d := s.DistanceToPoint(o.A)
	if v := s.DistanceToPoint(o.B); v < d {
		d = v
	}
	if v := o.DistanceToPoint(s.A); v < d {
		d = v
	}
	if v := o.DistanceToPoint(s.B); v < d {
		d = v
	}
	return d
}

// IntersectionKind describes the result of intersecting two segments.
type IntersectionKind int

// Possible intersection kinds.
const (
	// IntersectionNone means the segments do not meet.
	IntersectionNone IntersectionKind = iota
	// IntersectionPoint means the segments meet in exactly one point.
	IntersectionPoint
	// IntersectionOverlap means the segments are collinear and share a
	// sub-segment of positive length.
	IntersectionOverlap
)

// Intersect computes the intersection of two segments. For
// IntersectionPoint the single meeting point is returned in p0; for
// IntersectionOverlap the shared sub-segment's endpoints are returned in
// p0 and p1.
func (s Segment) Intersect(o Segment) (kind IntersectionKind, p0, p1 Point) {
	if !s.Envelope().Buffer(Eps).Intersects(o.Envelope().Buffer(Eps)) {
		return IntersectionNone, Point{}, Point{}
	}
	o1 := Orientation(s.A, s.B, o.A)
	o2 := Orientation(s.A, s.B, o.B)
	o3 := Orientation(o.A, o.B, s.A)
	o4 := Orientation(o.A, o.B, s.B)

	if o1 == 0 && o2 == 0 {
		// Collinear: project onto the dominant axis and intersect ranges.
		return s.collinearOverlap(o)
	}

	if o1 != o2 && o3 != o4 {
		// Proper or endpoint crossing: compute the meeting point by
		// solving the two line equations.
		d1 := s.B.Sub(s.A)
		d2 := o.B.Sub(o.A)
		den := d1.Cross(d2)
		if den == 0 {
			// Nearly parallel; fall back to an endpoint that lies on the
			// other segment.
			for _, c := range []Point{o.A, o.B, s.A, s.B} {
				if s.OnSegment(c) && o.OnSegment(c) {
					return IntersectionPoint, c, Point{}
				}
			}
			return IntersectionNone, Point{}, Point{}
		}
		t := o.A.Sub(s.A).Cross(d2) / den
		p := s.A.Add(d1.Scale(t))
		return IntersectionPoint, p, Point{}
	}

	// Touching cases: an endpoint of one lies on the other.
	for _, c := range []Point{o.A, o.B} {
		if s.OnSegment(c) && o.OnSegment(c) {
			return IntersectionPoint, c, Point{}
		}
	}
	for _, c := range []Point{s.A, s.B} {
		if s.OnSegment(c) && o.OnSegment(c) {
			return IntersectionPoint, c, Point{}
		}
	}
	return IntersectionNone, Point{}, Point{}
}

// collinearOverlap intersects two collinear segments.
func (s Segment) collinearOverlap(o Segment) (IntersectionKind, Point, Point) {
	// Choose the dominant axis of s for parameterisation.
	dx := math.Abs(s.B.X - s.A.X)
	dy := math.Abs(s.B.Y - s.A.Y)
	coord := func(p Point) float64 {
		if dx >= dy {
			return p.X
		}
		return p.Y
	}
	sLo, sHi := coord(s.A), coord(s.B)
	if sLo > sHi {
		sLo, sHi = sHi, sLo
	}
	oLo, oHi := coord(o.A), coord(o.B)
	pLo, pHi := o.A, o.B
	if oLo > oHi {
		oLo, oHi = oHi, oLo
		pLo, pHi = pHi, pLo
	}
	lo := maxf(sLo, oLo)
	hi := minf(sHi, oHi)
	if lo > hi+Eps {
		return IntersectionNone, Point{}, Point{}
	}
	// Map the clamped parameter range back to points. Endpoints of the
	// overlap are endpoints of one of the two segments.
	pick := func(v float64) Point {
		for _, c := range []Point{s.A, s.B, pLo, pHi} {
			if math.Abs(coord(c)-v) <= Eps {
				return c
			}
		}
		return s.A // unreachable for valid inputs
	}
	a, b := pick(lo), pick(hi)
	if a.DistanceTo(b) <= Eps {
		return IntersectionPoint, a, Point{}
	}
	return IntersectionOverlap, a, b
}
