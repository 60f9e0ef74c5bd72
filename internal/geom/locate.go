package geom

import (
	"cmp"
	"fmt"
	"slices"
)

// Location classifies a point against the point-set of a geometry, in the
// sense of the 9-intersection model: interior, boundary, or exterior.
type Location int

// Point-set locations.
const (
	Exterior Location = iota
	Boundary
	Interior
)

// String implements fmt.Stringer.
func (l Location) String() string {
	switch l {
	case Exterior:
		return "exterior"
	case Boundary:
		return "boundary"
	case Interior:
		return "interior"
	}
	return fmt.Sprintf("geom.Location(%d)", int(l))
}

// LocateInRing classifies p against the closed region bounded by ring r
// using the crossing-number rule, with an explicit on-boundary check first.
func LocateInRing(p Point, r Ring) Location {
	n := len(r.Coords)
	if n < 3 {
		return Exterior
	}
	if !r.Envelope().Buffer(Eps).ContainsPoint(p) {
		return Exterior
	}
	for i := 0; i < n; i++ {
		if r.Segment(i).OnSegment(p) {
			return Boundary
		}
	}
	// Ray cast towards +X. Count crossings, handling vertices on the ray
	// by the standard half-open rule: an edge crosses when exactly one of
	// its endpoints is strictly above the ray.
	inside := false
	for i := 0; i < n; i++ {
		a := r.Coords[i]
		b := r.Coords[(i+1)%n]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xAt := a.X + (p.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if xAt > p.X {
				inside = !inside
			}
		}
	}
	if inside {
		return Interior
	}
	return Exterior
}

// LocateInPolygon classifies p against polygon poly, accounting for holes:
// a point strictly inside a hole is in the polygon's exterior, and a point
// on a hole ring is on the polygon's boundary.
func LocateInPolygon(p Point, poly Polygon) Location {
	switch LocateInRing(p, poly.Shell) {
	case Exterior:
		return Exterior
	case Boundary:
		return Boundary
	}
	for _, h := range poly.Holes {
		switch LocateInRing(p, h) {
		case Interior:
			return Exterior
		case Boundary:
			return Boundary
		}
	}
	return Interior
}

// LocateOnLineString classifies p against linestring l. The boundary of a
// non-closed linestring is its two endpoints; closed linestrings have an
// empty boundary.
func LocateOnLineString(p Point, l LineString) Location {
	if len(l.Coords) == 0 {
		return Exterior
	}
	on := false
	for i := 0; i < l.NumSegments(); i++ {
		if l.Segment(i).OnSegment(p) {
			on = true
			break
		}
	}
	if !on {
		return Exterior
	}
	if l.IsClosed() {
		return Interior
	}
	if p.DistanceTo(l.Coords[0]) <= Eps || p.DistanceTo(l.Coords[len(l.Coords)-1]) <= Eps {
		return Boundary
	}
	return Interior
}

// Locate classifies point p against an arbitrary geometry. For collections
// the component locations combine by the point-set rules: interior of any
// component wins over boundary, and for multilinestrings an endpoint shared
// by an even number of member lines is interior (the mod-2 rule).
func Locate(p Point, g Geometry) Location {
	switch t := g.(type) {
	case Point:
		if p.DistanceTo(t) <= Eps {
			return Interior
		}
		return Exterior
	case MultiPoint:
		for _, q := range t.Points {
			if p.DistanceTo(q) <= Eps {
				return Interior
			}
		}
		return Exterior
	case LineString:
		return LocateOnLineString(p, t)
	case MultiLineString:
		return locateOnMultiLine(p, t)
	case Polygon:
		return LocateInPolygon(p, t)
	case MultiPolygon:
		loc := Exterior
		for _, poly := range t.Polygons {
			switch LocateInPolygon(p, poly) {
			case Interior:
				return Interior
			case Boundary:
				loc = Boundary
			}
		}
		return loc
	}
	panic(fmt.Sprintf("geom: unknown geometry type %T", g))
}

// locateOnMultiLine applies the mod-2 boundary rule across member lines.
func locateOnMultiLine(p Point, m MultiLineString) Location {
	endpointHits := 0
	interiorHit := false
	for _, l := range m.Lines {
		switch LocateOnLineString(p, l) {
		case Interior:
			interiorHit = true
		case Boundary:
			endpointHits++
		}
	}
	if endpointHits%2 == 1 {
		return Boundary
	}
	if interiorHit || endpointHits > 0 {
		return Interior
	}
	return Exterior
}

// polygonInteriorPoint returns a point strictly inside the polygon. It
// tries the centroid first and falls back to a horizontal scanline through
// the middle of the envelope, taking the midpoint of the widest inside
// span.
func polygonInteriorPoint(poly Polygon) (Point, bool) {
	if poly.IsEmpty() {
		return Point{}, false
	}
	if c := poly.Centroid(); LocateInPolygon(c, poly) == Interior {
		return c, true
	}
	env := poly.Envelope()
	// Scan a few horizontal lines; avoid lines through vertices by using
	// irrational-ish offsets within the envelope.
	for _, f := range []float64{0.5, 0.382, 0.618, 0.271, 0.729, 0.137, 0.863} {
		y := env.MinY + f*(env.MaxY-env.MinY)
		if p, ok := scanlineInteriorPoint(poly, y); ok {
			return p, true
		}
	}
	// Last resort: sample segment midpoints nudged inwards.
	for _, r := range poly.Rings() {
		for i := 0; i < r.NumSegments(); i++ {
			seg := r.Segment(i)
			mid := seg.Midpoint()
			d := seg.B.Sub(seg.A)
			n := Point{-d.Y, d.X}
			scale := Eps * 1e3 / (1 + n.DistanceTo(Point{}))
			for _, sign := range []float64{1, -1} {
				cand := mid.Add(n.Scale(sign * scale))
				if LocateInPolygon(cand, poly) == Interior {
					return cand, true
				}
			}
		}
	}
	return Point{}, false
}

// scanlineInteriorPoint intersects the horizontal line at height y with all
// polygon rings and returns the midpoint of the widest span between
// consecutive crossings whose midpoint is interior, the leftmost among
// equally wide ones. Spans are visited widest first, leftmost first
// among equals, and each visit costs one O(n) point location; on a
// simple polygon the first span visited is nearly always the answer.
func scanlineInteriorPoint(poly Polygon, y float64) (Point, bool) {
	var xs []float64
	for ri := 0; ri <= len(poly.Holes); ri++ {
		r := poly.ring(ri)
		n := len(r.Coords)
		for i := 0; i < n; i++ {
			a := r.Coords[i]
			b := r.Coords[(i+1)%n]
			if (a.Y > y) != (b.Y > y) {
				xs = append(xs, a.X+(y-a.Y)/(b.Y-a.Y)*(b.X-a.X))
			}
		}
	}
	slices.Sort(xs)
	spans := make([]int, 0, len(xs)/2) // span i runs from xs[i] to xs[i+1]
	for i := 0; i+1 < len(xs); i += 2 {
		if xs[i+1]-xs[i] > 0 {
			spans = append(spans, i)
		}
	}
	slices.SortFunc(spans, func(i, j int) int {
		return cmp.Or(cmp.Compare(xs[j+1]-xs[j], xs[i+1]-xs[i]), i-j)
	})
	for _, i := range spans {
		if mid := (Point{(xs[i] + xs[i+1]) / 2, y}); LocateInPolygon(mid, poly) == Interior {
			return mid, true
		}
	}
	return Point{}, false
}
