// Package geom implements the planar geometry substrate used by the
// qualitative spatial reasoning layers: geometry types (points, lines,
// polygons and their multi-variants), robust-enough geometric predicates,
// measures (length, area, distance), point location, linework noding, and
// WKT encoding.
//
// The package is deliberately self-contained (stdlib only) and models the
// simple-features geometry hierarchy closely enough that the DE-9IM
// computation in package de9im can reproduce the 9-intersection semantics
// of Egenhofer & Franzosa that the paper's predicate extraction relies on.
//
// Coordinates are float64 pairs in an arbitrary planar Cartesian reference
// system. Geometries are treated as immutable after construction; callers
// must not mutate coordinate slices they pass in.
package geom

import (
	"fmt"
	"math"
)

// Geometry is the interface implemented by every geometry type in this
// package. Implementations are value types; copying is cheap (slices are
// shared) and safe as long as the shared coordinates are not mutated.
type Geometry interface {
	// Envelope returns the minimal axis-aligned bounding box. Empty
	// geometries return an empty envelope.
	Envelope() Envelope
	// IsEmpty reports whether the geometry has no coordinates.
	IsEmpty() bool
	// Dimension is the topological dimension: 0 for points, 1 for lines,
	// 2 for polygons, independent of emptiness.
	Dimension() int
	// WKT renders the geometry as well-known text.
	WKT() string
}

// Point is a single position. The zero value is the origin.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Envelope implements Geometry.
func (p Point) Envelope() Envelope { return Envelope{p.X, p.Y, p.X, p.Y} }

// IsEmpty implements Geometry. A Point value is never empty.
func (p Point) IsEmpty() bool { return false }

// Dimension implements Geometry.
func (p Point) Dimension() int { return 0 }

// Equal reports exact coordinate equality.
func (p Point) Equal(q Point) bool { return p.X == q.X && p.Y == q.Y }

// Sub returns the vector p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns the translated point p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns the point scaled by s about the origin.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the 2-D cross product (z component) of p and q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// DistanceTo returns the Euclidean distance between p and q.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// WithinDistance reports whether p and q lie within d of each other:
// exactly Distance(p, q) <= d, for every finite d. Distance maps a
// separation at or below Eps to 0, so the points are within a d >= 0
// exactly when they measure at most max(d, Eps) apart, and never
// within a negative or NaN d. It is the one point–point decision:
// Prepared.WithinDistance's point loop and co-location's all-points
// refine both make it.
func (p Point) WithinDistance(q Point, d float64) bool {
	return d >= 0 && p.DistanceTo(q) <= max(d, Eps)
}

// MultiPoint is a collection of points.
type MultiPoint struct {
	Points []Point
}

// Envelope implements Geometry.
func (m MultiPoint) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, p := range m.Points {
		e = e.ExpandToPoint(p)
	}
	return e
}

// IsEmpty implements Geometry.
func (m MultiPoint) IsEmpty() bool { return len(m.Points) == 0 }

// Dimension implements Geometry.
func (m MultiPoint) Dimension() int { return 0 }

// LineString is an open or closed polyline with at least two coordinates.
type LineString struct {
	Coords []Point
}

// Line constructs a LineString from coordinates.
func Line(coords ...Point) LineString { return LineString{Coords: coords} }

// Envelope implements Geometry.
func (l LineString) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, p := range l.Coords {
		e = e.ExpandToPoint(p)
	}
	return e
}

// IsEmpty implements Geometry.
func (l LineString) IsEmpty() bool { return len(l.Coords) == 0 }

// Dimension implements Geometry.
func (l LineString) Dimension() int { return 1 }

// IsClosed reports whether the first and last coordinates coincide.
func (l LineString) IsClosed() bool {
	n := len(l.Coords)
	return n > 2 && l.Coords[0].Equal(l.Coords[n-1])
}

// NumSegments returns the number of line segments.
func (l LineString) NumSegments() int {
	if len(l.Coords) < 2 {
		return 0
	}
	return len(l.Coords) - 1
}

// Segment returns the i-th segment.
func (l LineString) Segment(i int) Segment {
	return Segment{l.Coords[i], l.Coords[i+1]}
}

// MultiLineString is a collection of linestrings.
type MultiLineString struct {
	Lines []LineString
}

// Envelope implements Geometry.
func (m MultiLineString) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, l := range m.Lines {
		e = e.Union(l.Envelope())
	}
	return e
}

// IsEmpty implements Geometry.
func (m MultiLineString) IsEmpty() bool { return len(m.Lines) == 0 }

// Dimension implements Geometry.
func (m MultiLineString) Dimension() int { return 1 }

// Ring is a closed ring of coordinates. The closing coordinate is implicit:
// a Ring with coordinates [a b c] denotes the closed loop a-b-c-a. Rings
// must be simple (non self-intersecting) for predicates to be meaningful.
type Ring struct {
	Coords []Point
}

// NumSegments returns the number of ring edges (== len(Coords) for a
// non-degenerate ring, because the ring closes implicitly).
func (r Ring) NumSegments() int {
	if len(r.Coords) < 3 {
		return 0
	}
	return len(r.Coords)
}

// Segment returns the i-th edge, wrapping around to close the ring.
func (r Ring) Segment(i int) Segment {
	j := i + 1
	if j == len(r.Coords) {
		j = 0
	}
	return Segment{r.Coords[i], r.Coords[j]}
}

// SignedArea returns the shoelace signed area: positive for counterclockwise
// rings, negative for clockwise.
func (r Ring) SignedArea() float64 {
	var sum float64
	n := len(r.Coords)
	if n < 3 {
		return 0
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += r.Coords[i].Cross(r.Coords[j])
	}
	return sum / 2
}

// Area returns the absolute enclosed area.
func (r Ring) Area() float64 { return math.Abs(r.SignedArea()) }

// Envelope returns the bounding box of the ring.
func (r Ring) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, p := range r.Coords {
		e = e.ExpandToPoint(p)
	}
	return e
}

// Polygon is an area bounded by one exterior shell and zero or more interior
// hole rings. Holes must lie inside the shell and must not overlap each
// other; this package does not verify validity on construction (see
// Validate).
type Polygon struct {
	Shell Ring
	Holes []Ring
}

// Poly constructs a hole-free polygon from shell coordinates.
func Poly(shell ...Point) Polygon { return Polygon{Shell: Ring{Coords: shell}} }

// Rect constructs an axis-aligned rectangular polygon.
func Rect(minX, minY, maxX, maxY float64) Polygon {
	return Poly(Pt(minX, minY), Pt(maxX, minY), Pt(maxX, maxY), Pt(minX, maxY))
}

// Envelope implements Geometry.
func (p Polygon) Envelope() Envelope { return p.Shell.Envelope() }

// IsEmpty implements Geometry.
func (p Polygon) IsEmpty() bool { return len(p.Shell.Coords) == 0 }

// Dimension implements Geometry.
func (p Polygon) Dimension() int { return 2 }

// Area returns the enclosed area (shell minus holes).
func (p Polygon) Area() float64 {
	a := p.Shell.Area()
	for _, h := range p.Holes {
		a -= h.Area()
	}
	return a
}

// Rings returns every ring of the polygon: the shell followed by the holes.
func (p Polygon) Rings() []Ring {
	rings := make([]Ring, 0, 1+len(p.Holes))
	rings = append(rings, p.Shell)
	rings = append(rings, p.Holes...)
	return rings
}

// ring returns ring i of the polygon in Rings order (0 is the shell), for
// loops over i <= len(p.Holes) that should not allocate.
func (p Polygon) ring(i int) Ring {
	if i == 0 {
		return p.Shell
	}
	return p.Holes[i-1]
}

// Centroid returns the area-weighted centroid of the polygon. Degenerate
// polygons fall back to the mean of the shell coordinates.
func (p Polygon) Centroid() Point {
	cx, cy, w := ringCentroidAccum(p.Shell)
	for _, h := range p.Holes {
		hx, hy, hw := ringCentroidAccum(h)
		cx -= hx
		cy -= hy
		w -= hw
	}
	if w == 0 {
		var sx, sy float64
		n := len(p.Shell.Coords)
		if n == 0 {
			return Point{}
		}
		for _, c := range p.Shell.Coords {
			sx += c.X
			sy += c.Y
		}
		return Point{sx / float64(n), sy / float64(n)}
	}
	return Point{cx / (6 * w), cy / (6 * w)}
}

// ringCentroidAccum returns the unnormalised centroid accumulators of a
// ring: Σ(x_i+x_j)·cross, Σ(y_i+y_j)·cross, and the ring area (all made
// positive so shells and holes compose by subtraction). The centroid of a
// single ring is (cx/(6·w), cy/(6·w)).
func ringCentroidAccum(r Ring) (cx, cy, w float64) {
	n := len(r.Coords)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		cross := r.Coords[i].Cross(r.Coords[j])
		cx += (r.Coords[i].X + r.Coords[j].X) * cross
		cy += (r.Coords[i].Y + r.Coords[j].Y) * cross
		w += cross
	}
	w /= 2
	if w < 0 {
		cx, cy, w = -cx, -cy, -w
	}
	return cx, cy, w
}

// MultiPolygon is a collection of polygons. Member polygons must have
// disjoint interiors for predicates to be meaningful.
type MultiPolygon struct {
	Polygons []Polygon
}

// Envelope implements Geometry.
func (m MultiPolygon) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, p := range m.Polygons {
		e = e.Union(p.Envelope())
	}
	return e
}

// IsEmpty implements Geometry.
func (m MultiPolygon) IsEmpty() bool { return len(m.Polygons) == 0 }

// Dimension implements Geometry.
func (m MultiPolygon) Dimension() int { return 2 }

// Translate returns a copy of g shifted by (dx, dy). The returned geometry
// shares no coordinate storage with the input.
func Translate(g Geometry, dx, dy float64) Geometry {
	shift := func(ps []Point) []Point {
		out := make([]Point, len(ps))
		for i, p := range ps {
			out[i] = Point{p.X + dx, p.Y + dy}
		}
		return out
	}
	switch t := g.(type) {
	case Point:
		return Point{t.X + dx, t.Y + dy}
	case MultiPoint:
		return MultiPoint{Points: shift(t.Points)}
	case LineString:
		return LineString{Coords: shift(t.Coords)}
	case MultiLineString:
		lines := make([]LineString, len(t.Lines))
		for i, l := range t.Lines {
			lines[i] = LineString{Coords: shift(l.Coords)}
		}
		return MultiLineString{Lines: lines}
	case Polygon:
		holes := make([]Ring, len(t.Holes))
		for i, h := range t.Holes {
			holes[i] = Ring{Coords: shift(h.Coords)}
		}
		return Polygon{Shell: Ring{Coords: shift(t.Shell.Coords)}, Holes: holes}
	case MultiPolygon:
		polys := make([]Polygon, len(t.Polygons))
		for i, p := range t.Polygons {
			polys[i] = Translate(p, dx, dy).(Polygon)
		}
		return MultiPolygon{Polygons: polys}
	}
	panic(fmt.Sprintf("geom: unknown geometry type %T", g))
}

// Centroid returns a representative centroid for any geometry: the
// area-weighted centroid for polygons, the length-weighted midpoint for
// lines, and the mean for point collections.
func Centroid(g Geometry) Point {
	switch t := g.(type) {
	case Point:
		return t
	case MultiPoint:
		var sx, sy float64
		if len(t.Points) == 0 {
			return Point{}
		}
		for _, p := range t.Points {
			sx += p.X
			sy += p.Y
		}
		n := float64(len(t.Points))
		return Point{sx / n, sy / n}
	case LineString:
		return lineCentroid([]LineString{t})
	case MultiLineString:
		return lineCentroid(t.Lines)
	case Polygon:
		return t.Centroid()
	case MultiPolygon:
		var cx, cy, w float64
		for _, p := range t.Polygons {
			a := p.Area()
			c := p.Centroid()
			cx += c.X * a
			cy += c.Y * a
			w += a
		}
		if w == 0 {
			if len(t.Polygons) == 0 {
				return Point{}
			}
			return t.Polygons[0].Centroid()
		}
		return Point{cx / w, cy / w}
	}
	panic(fmt.Sprintf("geom: unknown geometry type %T", g))
}

// lineCentroid returns the length-weighted centroid of a set of lines.
func lineCentroid(lines []LineString) Point {
	var cx, cy, w float64
	for _, l := range lines {
		for i := 1; i < len(l.Coords); i++ {
			a, b := l.Coords[i-1], l.Coords[i]
			length := a.DistanceTo(b)
			cx += (a.X + b.X) / 2 * length
			cy += (a.Y + b.Y) / 2 * length
			w += length
		}
	}
	if w == 0 {
		for _, l := range lines {
			if len(l.Coords) > 0 {
				return l.Coords[0]
			}
		}
		return Point{}
	}
	return Point{cx / w, cy / w}
}
