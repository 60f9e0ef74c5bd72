package geom

import "math"

// Distance returns the minimal Euclidean distance between the point-sets of
// two geometries. Geometries that intersect (including touching or
// containment) have distance 0. Empty geometries are at infinite distance.
func Distance(a, b Geometry) float64 {
	if a.IsEmpty() || b.IsEmpty() {
		return math.Inf(1)
	}
	sa, sb := BuildSoup(a), BuildSoup(b)

	// Containment short-circuits: any representative point of one
	// geometry inside the other means distance 0.
	if sa.HasArea {
		if anyPointInside(pointSamples(sb), a) {
			return 0
		}
	}
	if sb.HasArea {
		if anyPointInside(pointSamples(sa), b) {
			return 0
		}
	}

	best := math.Inf(1)
	// Segment-to-segment distances (0 on intersection).
	for _, ta := range sa.Segments {
		for _, tb := range sb.Segments {
			if d := ta.Seg.DistanceToSegment(tb.Seg); d < best {
				best = d
				if best == 0 {
					return 0
				}
			}
		}
	}
	// Point-to-segment and point-to-point distances.
	for _, p := range sa.InteriorPoints {
		for _, tb := range sb.Segments {
			if d := tb.Seg.DistanceToPoint(p); d < best {
				best = d
			}
		}
		for _, q := range sb.InteriorPoints {
			if d := p.DistanceTo(q); d < best {
				best = d
			}
		}
	}
	for _, q := range sb.InteriorPoints {
		for _, ta := range sa.Segments {
			if d := ta.Seg.DistanceToPoint(q); d < best {
				best = d
			}
		}
	}
	if best <= Eps {
		return 0
	}
	return best
}

// pointSamples returns representative points of a soup: isolated points and
// one vertex per segment. Enough to decide containment against an area.
func pointSamples(s *Soup) []Point {
	pts := make([]Point, 0, len(s.InteriorPoints)+len(s.Segments))
	pts = append(pts, s.InteriorPoints...)
	for _, ts := range s.Segments {
		pts = append(pts, ts.Seg.A)
	}
	return pts
}

// anyPointInside reports whether any of the points is not in the exterior
// of g.
func anyPointInside(pts []Point, g Geometry) bool {
	env := g.Envelope().Buffer(Eps)
	for _, p := range pts {
		if !env.ContainsPoint(p) {
			continue
		}
		if Locate(p, g) != Exterior {
			return true
		}
	}
	return false
}
