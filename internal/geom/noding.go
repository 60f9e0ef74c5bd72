package geom

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// EdgeRole describes which part of a geometry's point-set a segment of
// linework belongs to. Segments of a LineString belong to the line's
// interior (except for the endpoint boundary, tracked separately), while
// segments of polygon rings belong to the polygon's boundary.
type EdgeRole int

// Edge roles.
const (
	// RoleLineInterior marks a segment of a linestring.
	RoleLineInterior EdgeRole = iota
	// RoleRingBoundary marks a segment of a polygon ring (shell or hole).
	RoleRingBoundary
)

// TaggedSegment couples a segment with the role it plays in its geometry.
type TaggedSegment struct {
	Seg  Segment
	Role EdgeRole
}

// Soup is the decomposition of a geometry into primitive linework and
// points, tagged with their point-set role. It is the working
// representation of the relate (DE-9IM) computation.
type Soup struct {
	// Geometry is the source geometry.
	Geometry Geometry
	// Segments is all linework: linestring segments and ring edges.
	Segments []TaggedSegment
	// InteriorPoints are isolated points belonging to the geometry's
	// interior (the members of Point/MultiPoint geometries).
	InteriorPoints []Point
	// BoundaryPoints are the boundary points of the geometry's
	// linestrings after applying the mod-2 rule.
	BoundaryPoints []Point
	// HasArea reports whether the geometry has 2-D components.
	HasArea bool
	// HasLine reports whether the geometry has 1-D components.
	HasLine bool
	// HasPoint reports whether the geometry has 0-D components.
	HasPoint bool
}

// BuildSoup decomposes g into its tagged primitive parts.
func BuildSoup(g Geometry) *Soup {
	s := &Soup{}
	fillSoup(s, g, nil, nil)
	return s
}

// fillSoup decomposes g into s, appending its segments to segs and its
// interior points, then its boundary points, to pts. The soup's slices
// are capacity-capped windows of the appended runs, so PrepareAll can
// hand in arena windows sized by its counting pass and BuildSoup nil
// slices that grow as needed. The extended slices are returned.
func fillSoup(s *Soup, g Geometry, segs []TaggedSegment, pts []Point) ([]TaggedSegment, []Point) {
	s.Geometry = g
	seg0, pt0 := len(segs), len(pts)
	addLine := func(l LineString) {
		if len(l.Coords) == 0 {
			return
		}
		s.HasLine = true
		for i := 0; i < l.NumSegments(); i++ {
			if seg := l.Segment(i); !seg.IsDegenerate() {
				segs = append(segs, TaggedSegment{seg, RoleLineInterior})
			}
		}
	}
	addPoly := func(p Polygon) {
		if p.IsEmpty() {
			return
		}
		s.HasArea = true
		for ri := 0; ri <= len(p.Holes); ri++ {
			r := p.ring(ri)
			for i := 0; i < r.NumSegments(); i++ {
				if seg := r.Segment(i); !seg.IsDegenerate() {
					segs = append(segs, TaggedSegment{seg, RoleRingBoundary})
				}
			}
		}
	}
	interior := 0
	switch t := g.(type) {
	case Point:
		s.HasPoint = true
		pts = append(pts, t)
		interior = 1
	case MultiPoint:
		s.HasPoint = len(t.Points) > 0
		pts = append(pts, t.Points...)
		interior = len(t.Points)
	case LineString:
		addLine(t)
		// The boundary of one open line is its two endpoints, unless
		// they coincide (the mod-2 rule then cancels them).
		if n := len(t.Coords); n >= 2 && !t.IsClosed() && !t.Coords[0].Equal(t.Coords[n-1]) {
			pts = append(pts, t.Coords[0], t.Coords[n-1])
		}
	case MultiLineString:
		endpointCount := map[Point]int{}
		for _, l := range t.Lines {
			addLine(l)
			if !l.IsClosed() && len(l.Coords) >= 2 {
				endpointCount[l.Coords[0]]++
				endpointCount[l.Coords[len(l.Coords)-1]]++
			}
		}
		for p, c := range endpointCount {
			if c%2 == 1 {
				pts = append(pts, p)
			}
		}
	case Polygon:
		addPoly(t)
	case MultiPolygon:
		for _, p := range t.Polygons {
			addPoly(p)
		}
	default:
		panic(fmt.Sprintf("geom: unknown geometry type %T", g))
	}
	// Deterministic boundary order for reproducibility (map iteration is
	// random). The keys are unique, so any sort gives this order.
	bnd := pts[pt0+interior:]
	slices.SortFunc(bnd, func(a, b Point) int {
		if a.X != b.X {
			return cmpLess(a.X, b.X)
		}
		return cmpLess(a.Y, b.Y)
	})
	s.Segments = capped(segs[seg0:])
	s.InteriorPoints = capped(pts[pt0 : pt0+interior])
	s.BoundaryPoints = capped(bnd)
	return segs, pts
}

// cmpLess is the three-way form of a < b: it reports a before b exactly
// when a < b holds, so a sort makes the same decisions as with the
// boolean comparison, NaN included.
func cmpLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// NodeResult is the outcome of noding two soups against each other.
// Its slices alias the Scratch the noding wrote into, or, for a side no
// cut reaches, that side's soup: they are read-only, and valid until the
// scratch is noded into again or released.
type NodeResult struct {
	// SubA and SubB hold the segments of each soup split at every
	// intersection with the other soup's linework. They must not be
	// modified.
	SubA, SubB []TaggedSegment
	// Nodes is the deduplicated set of intersection points between the
	// two soups' linework.
	Nodes []Point
}

// Scratch is the working memory of one relate: the noding's cut lists,
// split sub-segments and node points, and the candidate, pair, flag and
// traversal-stack buffers of the edge-tree queries behind NodePrepared
// and LocateWith. Every buffer keeps its capacity from use to use, so a
// warm Scratch lets a relate run without allocating or zeroing stack
// arrays. The zero value is ready to use; GetScratch takes one from a
// pool and Release returns it. A Scratch serves one goroutine at a time.
type Scratch struct {
	cutsA, cutsB [][]float64
	subA, subB   []TaggedSegment
	nodes        []Point
	cands, js    []int32
	pairs        []uint64
	flags        []uint8
	stack        []int32
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from a pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns sc to the pool. Nothing noded with it may be used
// afterwards.
func (sc *Scratch) Release() { scratchPool.Put(sc) }

// resetCuts empties the cut lists for soups of na and nb segments.
func (sc *Scratch) resetCuts(na, nb int) (cutsA, cutsB [][]float64) {
	sc.cutsA = emptyCuts(sc.cutsA, na)
	sc.cutsB = emptyCuts(sc.cutsB, nb)
	return sc.cutsA, sc.cutsB
}

// emptyCuts returns n empty cut lists, reusing cuts' lists and capacity.
func emptyCuts(cuts [][]float64, n int) [][]float64 {
	if cap(cuts) < n {
		grown := make([][]float64, n)
		copy(grown, cuts[:cap(cuts)])
		cuts = grown
	}
	cuts = cuts[:n]
	for i := range cuts {
		cuts[i] = cuts[i][:0]
	}
	return cuts
}

// flagsFor returns n zeroed per-slot flag bytes.
func (sc *Scratch) flagsFor(n int) []uint8 {
	if cap(sc.flags) < n {
		sc.flags = make([]uint8, n)
	}
	f := sc.flags[:n]
	clear(f)
	return f
}

// result splits both sides at their cuts into the scratch's sub-segment
// buffers and hands out the node points collected in nodeSet, which
// started from the scratch's node buffer.
func (sc *Scratch) result(segsA, segsB []TaggedSegment, nodeSet pointSet) NodeResult {
	sc.nodes = nodeSet.points
	return NodeResult{
		SubA:  splitAll(segsA, sc.cutsA, &sc.subA),
		SubB:  splitAll(segsB, sc.cutsB, &sc.subB),
		Nodes: nodeSet.points,
	}
}

// NodeSoups splits the segments of a and b at all mutual intersection
// points and collects those points, writing both into sc. The splitting
// is quadratic in the number of segments with an envelope pre-filter,
// which is appropriate for the feature-versus-feature relate calls this
// package serves (features have tens of vertices; the cross-feature
// candidate filtering happens in the spatial index, not here).
func NodeSoups(a, b *Soup, sc *Scratch) NodeResult {
	cutsA, cutsB := sc.resetCuts(len(a.Segments), len(b.Segments))
	nodeSet := pointSet{points: sc.nodes[:0]}

	for i, sa := range a.Segments {
		ea := sa.Seg.Envelope().Buffer(Eps)
		for j, sb := range b.Segments {
			if !ea.Intersects(sb.Seg.Envelope()) {
				continue
			}
			kind, p0, p1 := sa.Seg.Intersect(sb.Seg)
			switch kind {
			case IntersectionPoint:
				cutsA[i] = append(cutsA[i], paramOn(sa.Seg, p0))
				cutsB[j] = append(cutsB[j], paramOn(sb.Seg, p0))
				nodeSet.add(p0)
			case IntersectionOverlap:
				for _, p := range []Point{p0, p1} {
					cutsA[i] = append(cutsA[i], paramOn(sa.Seg, p))
					cutsB[j] = append(cutsB[j], paramOn(sb.Seg, p))
					nodeSet.add(p)
				}
			}
		}
	}
	// Also split at the other soup's isolated points: a point feature
	// lying on a segment must become a vertex, or the sub-segment
	// midpoint classification could coincide with the point itself.
	splitAtPoints := func(segs []TaggedSegment, cuts [][]float64, pts []Point) {
		for i, ts := range segs {
			env := ts.Seg.Envelope().Buffer(Eps)
			for _, p := range pts {
				if env.ContainsPoint(p) && ts.Seg.OnSegment(p) {
					cuts[i] = append(cuts[i], paramOn(ts.Seg, p))
					nodeSet.add(p)
				}
			}
		}
	}
	bPts := append(append([]Point{}, b.InteriorPoints...), b.BoundaryPoints...)
	aPts := append(append([]Point{}, a.InteriorPoints...), a.BoundaryPoints...)
	splitAtPoints(a.Segments, cutsA, bPts)
	splitAtPoints(b.Segments, cutsB, aPts)

	return sc.result(a.Segments, b.Segments, nodeSet)
}

// paramOn returns the parameter of p along segment s in [0, 1].
func paramOn(s Segment, p Point) float64 {
	d := s.B.Sub(s.A)
	den := d.Dot(d)
	if den == 0 {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / den
	return maxf(0, minf(1, t))
}

// splitAll splits every segment at its cut parameters (sorted in place),
// dropping degenerate pieces. Without any cut it returns segs itself and
// leaves *buf alone: segs is a soup's own slice, which must never become
// a buffer the next noding writes into. Otherwise it writes the pieces
// into *buf, grown once to room for every piece, and keeps the grown
// buffer there.
func splitAll(segs []TaggedSegment, cuts [][]float64, buf *[]TaggedSegment) []TaggedSegment {
	total := 0
	for _, cs := range cuts {
		total += len(cs)
	}
	if total == 0 {
		return segs
	}
	out := slices.Grow((*buf)[:0], len(segs)+total)
	for i, ts := range segs {
		cs := cuts[i]
		if len(cs) == 0 {
			out = append(out, ts)
			continue
		}
		sort.Float64s(cs)
		prev := 0.0
		prevPt := ts.Seg.A
		emit := func(t float64, pt Point) {
			if t-prev > Eps && prevPt.DistanceTo(pt) > Eps {
				out = append(out, TaggedSegment{Segment{prevPt, pt}, ts.Role})
			}
			prev, prevPt = t, pt
		}
		d := ts.Seg.B.Sub(ts.Seg.A)
		for _, t := range cs {
			if t <= prev+Eps {
				continue
			}
			emit(t, ts.Seg.A.Add(d.Scale(t)))
		}
		emit(1, ts.Seg.B)
	}
	*buf = out
	return out
}

// pointSet deduplicates points within the package tolerance. Linear scan:
// the relate computation produces a handful of nodes per feature pair.
type pointSet struct {
	points []Point
}

func (s *pointSet) add(p Point) {
	for _, q := range s.points {
		if p.DistanceTo(q) <= Eps {
			return
		}
	}
	s.points = append(s.points, p)
}
