package geom

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Validation errors returned by Validate. Use errors.Is to test for them.
var (
	ErrTooFewCoords    = errors.New("geom: too few coordinates")
	ErrRingNotSimple   = errors.New("geom: ring is self-intersecting")
	ErrHoleOutside     = errors.New("geom: hole not inside shell")
	ErrRepeatedCoord   = errors.New("geom: repeated consecutive coordinate")
	ErrNonFiniteCoord  = errors.New("geom: non-finite coordinate")
	ErrUnsupportedType = errors.New("geom: unsupported geometry type")
)

// Validate checks structural validity of a geometry: coordinate counts,
// finite coordinates, ring simplicity, and hole containment. It returns nil
// for valid geometries and a wrapped sentinel error otherwise. A ring of
// n edges takes O(n log n) time plus the edge pairs whose envelopes
// overlap, and hole vertices are located through the shell's edge tree.
func Validate(g Geometry) error {
	switch t := g.(type) {
	case Point:
		return validateFinite([]Point{t})
	case MultiPoint:
		return validateFinite(t.Points)
	case LineString:
		return validateLine(t)
	case MultiLineString:
		for i, l := range t.Lines {
			if err := validateLine(l); err != nil {
				return fmt.Errorf("line %d: %w", i, err)
			}
		}
		return nil
	case Polygon:
		return validatePolygon(t)
	case MultiPolygon:
		for i, p := range t.Polygons {
			if err := validatePolygon(p); err != nil {
				return fmt.Errorf("polygon %d: %w", i, err)
			}
		}
		return nil
	}
	return fmt.Errorf("%w: %T", ErrUnsupportedType, g)
}

func validateFinite(pts []Point) error {
	for _, p := range pts {
		if !isFinite(p.X) || !isFinite(p.Y) {
			return fmt.Errorf("%w: (%v, %v)", ErrNonFiniteCoord, p.X, p.Y)
		}
	}
	return nil
}

func isFinite(f float64) bool { return f == f && f < 1e308 && f > -1e308 }

func validateLine(l LineString) error {
	if len(l.Coords) < 2 {
		return fmt.Errorf("%w: linestring needs >= 2, has %d", ErrTooFewCoords, len(l.Coords))
	}
	if err := validateFinite(l.Coords); err != nil {
		return err
	}
	for i := 1; i < len(l.Coords); i++ {
		if l.Coords[i].DistanceTo(l.Coords[i-1]) <= Eps {
			return fmt.Errorf("%w: at index %d", ErrRepeatedCoord, i)
		}
	}
	return nil
}

func validatePolygon(p Polygon) error {
	if err := validateRing(p.Shell); err != nil {
		return fmt.Errorf("shell: %w", err)
	}
	if len(p.Holes) == 0 {
		return nil
	}
	shell := newRingIndex(p.Shell)
	for i, h := range p.Holes {
		if err := validateRing(h); err != nil {
			return fmt.Errorf("hole %d: %w", i, err)
		}
		// Every hole vertex must be inside or on the shell.
		for _, c := range h.Coords {
			if shell.exterior(c) {
				return fmt.Errorf("%w: hole %d vertex (%v, %v)", ErrHoleOutside, i, c.X, c.Y)
			}
		}
	}
	return nil
}

// validateRing returns the first error of the all-pairs loop over r's
// edges, which for i ascending reports edge i if it is degenerate and
// otherwise the first j > i whose edge meets edge i other than at the
// vertex adjacent edges share. Only pairs whose Eps-grown envelopes
// overlap can meet (Segment.Intersect rejects the others first), so it
// sorts the edges on those envelopes' MinX and sweeps, testing each
// overlapping pair that would come before the earliest error found so
// far: O(n log n) time plus the overlapping pairs.
func validateRing(r Ring) error {
	if len(r.Coords) < 3 {
		return fmt.Errorf("%w: ring needs >= 3, has %d", ErrTooFewCoords, len(r.Coords))
	}
	if err := validateFinite(r.Coords); err != nil {
		return err
	}
	n := r.NumSegments()
	// The loop stops at the first degenerate edge, before any pair that
	// starts there or later.
	firstI, firstJ := n, -1
	for i := 0; i < n; i++ {
		if r.Segment(i).IsDegenerate() {
			firstI = i
			break
		}
	}
	// Rings of uploaded scenes are mostly short; theirs stay on the stack.
	var buf [32]sweepEdge
	edges := buf[:0]
	if n > len(buf) {
		edges = make([]sweepEdge, 0, n)
	}
	for i := 0; i < n; i++ {
		edges = append(edges, sweepEdge{env: r.Segment(i).Envelope().Buffer(Eps), i: i})
	}
	slices.SortFunc(edges, func(a, b sweepEdge) int { return cmp.Compare(a.env.MinX, b.env.MinX) })
	var kind IntersectionKind
	var p0, p1 Point
	for k, a := range edges {
		for _, b := range edges[k+1:] {
			if b.env.MinX > a.env.MaxX {
				break
			}
			i, j := min(a.i, b.i), max(a.i, b.i)
			if i > firstI || (i == firstI && j >= firstJ) || !a.env.Intersects(b.env) {
				continue
			}
			// Adjacent edges legitimately share a vertex; wrap-around
			// makes edge 0 adjacent to edge n-1.
			adjacent := j == i+1 || (i == 0 && j == n-1)
			got, q0, q1 := r.Segment(i).Intersect(r.Segment(j))
			if got == IntersectionOverlap || got == IntersectionPoint && !adjacent {
				firstI, firstJ, kind, p0, p1 = i, j, got, q0, q1
			}
		}
	}
	switch {
	case firstI == n:
		return nil
	case firstJ < 0:
		return fmt.Errorf("%w: ring edge %d", ErrRepeatedCoord, firstI)
	case kind == IntersectionPoint:
		return fmt.Errorf("%w: edges %d and %d meet at (%v, %v)",
			ErrRingNotSimple, firstI, firstJ, p0.X, p0.Y)
	}
	return fmt.Errorf("%w: edges %d and %d overlap from (%v, %v) to (%v, %v)",
		ErrRingNotSimple, firstI, firstJ, p0.X, p0.Y, p1.X, p1.Y)
}

// sweepEdge is one ring edge in validateRing's sweep: its envelope grown
// by Eps, as Segment.Intersect grows it, and its index in the ring.
type sweepEdge struct {
	env Envelope
	i   int
}

// ringIndex locates points against one ring through an edge tree. It
// is the part of a Prepared that Locate needs: Prepare would also find
// interior sample points, which a hostile shell can make quadratic.
type ringIndex struct {
	env  Envelope // the ring's envelope grown by Eps
	tree segTree
	sc   Scratch // the traversal buffers of exterior
}

func newRingIndex(r Ring) ringIndex {
	entries := make([]segEntry, r.NumSegments())
	for i := range entries {
		seg := r.Segment(i)
		entries[i] = segEntry{seg: seg, env: seg.Envelope()}
	}
	return ringIndex{
		env:  r.Envelope().Buffer(Eps),
		tree: buildSegTree(entries, make([]segNode, 0, segTreeNodes(len(entries)))),
	}
}

// exterior reports whether LocateInRing(p, r) is Exterior, answered as
// Prepared.Locate answers it: the on-edge test runs only on the edges
// whose envelope can hold p, and the ray parity only over the edges the
// +X ray can cross, with LocateInRing's arithmetic.
func (ri *ringIndex) exterior(p Point) bool {
	if !ri.env.ContainsPoint(p) {
		return true
	}
	for _, e := range ri.tree.pointCandidates(p, &ri.sc) {
		if ri.tree.entries[e].seg.OnSegment(p) {
			return false
		}
	}
	var flags [1]uint8
	ri.tree.rayFlags(p, flags[:], &ri.sc)
	return flags[0]&prepParityBit == 0
}
