package geom

import (
	"math"
	"sort"
)

// ConvexHull returns the convex hull of the input points as a
// counterclockwise ring (Andrew's monotone chain). Degenerate inputs
// (fewer than 3 distinct non-collinear points) return a ring with fewer
// than 3 coordinates; callers needing an area should check NumSegments.
func ConvexHull(points []Point) Ring {
	pts := dedupePoints(points)
	if len(pts) < 3 {
		return Ring{Coords: pts}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
	// Lower hull.
	var lower []Point
	for _, p := range pts {
		for len(lower) >= 2 && Orientation(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	// Upper hull.
	var upper []Point
	for i := len(pts) - 1; i >= 0; i-- {
		p := pts[i]
		for len(upper) >= 2 && Orientation(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	// Concatenate, dropping the duplicated endpoints.
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	return Ring{Coords: hull}
}

// dedupePoints removes exact duplicates, preserving first occurrence.
func dedupePoints(points []Point) []Point {
	seen := make(map[Point]struct{}, len(points))
	out := make([]Point, 0, len(points))
	for _, p := range points {
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	return out
}

// Affine is a 2-D affine transform: x' = A·x + b, row-major
// [XX XY; YX YY] with translation (TX, TY).
type Affine struct {
	XX, XY, YX, YY float64
	TX, TY         float64
}

// IdentityAffine returns the identity transform.
func IdentityAffine() Affine { return Affine{XX: 1, YY: 1} }

// TranslateAffine returns a pure translation.
func TranslateAffine(dx, dy float64) Affine { return Affine{XX: 1, YY: 1, TX: dx, TY: dy} }

// ScaleAffine returns a scaling about the origin.
func ScaleAffine(sx, sy float64) Affine { return Affine{XX: sx, YY: sy} }

// RotateAffine returns a counterclockwise rotation by theta radians about
// the origin.
func RotateAffine(theta float64) Affine {
	s, c := math.Sincos(theta)
	return Affine{XX: c, XY: -s, YX: s, YY: c}
}

// RotateAround returns a rotation about an arbitrary center: translate
// the center to the origin, rotate, translate back.
func RotateAround(theta float64, center Point) Affine {
	return TranslateAffine(-center.X, -center.Y).
		Then(RotateAffine(theta)).
		Then(TranslateAffine(center.X, center.Y))
}

// Then returns the transform that applies t first, then next.
func (t Affine) Then(next Affine) Affine { return next.compose(t) }

// compose returns t ∘ o (apply o first).
func (t Affine) compose(o Affine) Affine {
	return Affine{
		XX: t.XX*o.XX + t.XY*o.YX,
		XY: t.XX*o.XY + t.XY*o.YY,
		YX: t.YX*o.XX + t.YY*o.YX,
		YY: t.YX*o.XY + t.YY*o.YY,
		TX: t.XX*o.TX + t.XY*o.TY + t.TX,
		TY: t.YX*o.TX + t.YY*o.TY + t.TY,
	}
}

// Apply transforms a point.
func (t Affine) Apply(p Point) Point {
	return Point{
		X: t.XX*p.X + t.XY*p.Y + t.TX,
		Y: t.YX*p.X + t.YY*p.Y + t.TY,
	}
}

// Transform applies the affine map to any geometry, returning a new
// geometry sharing no storage with the input.
func Transform(g Geometry, t Affine) Geometry {
	mapPts := func(ps []Point) []Point {
		out := make([]Point, len(ps))
		for i, p := range ps {
			out[i] = t.Apply(p)
		}
		return out
	}
	switch v := g.(type) {
	case Point:
		return t.Apply(v)
	case MultiPoint:
		return MultiPoint{Points: mapPts(v.Points)}
	case LineString:
		return LineString{Coords: mapPts(v.Coords)}
	case MultiLineString:
		lines := make([]LineString, len(v.Lines))
		for i, l := range v.Lines {
			lines[i] = LineString{Coords: mapPts(l.Coords)}
		}
		return MultiLineString{Lines: lines}
	case Polygon:
		holes := make([]Ring, len(v.Holes))
		for i, h := range v.Holes {
			holes[i] = Ring{Coords: mapPts(h.Coords)}
		}
		return Polygon{Shell: Ring{Coords: mapPts(v.Shell.Coords)}, Holes: holes}
	case MultiPolygon:
		polys := make([]Polygon, len(v.Polygons))
		for i, p := range v.Polygons {
			polys[i] = Transform(p, t).(Polygon)
		}
		return MultiPolygon{Polygons: polys}
	}
	panic("geom: unknown geometry type")
}
