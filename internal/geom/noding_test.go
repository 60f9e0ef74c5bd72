package geom

import (
	"math"
	"testing"
)

func TestBuildSoupPolygon(t *testing.T) {
	poly := Polygon{
		Shell: Ring{Coords: []Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)}},
		Holes: []Ring{{Coords: []Point{Pt(1, 1), Pt(2, 1), Pt(2, 2), Pt(1, 2)}}},
	}
	s := BuildSoup(poly)
	if !s.HasArea || s.HasLine || s.HasPoint {
		t.Errorf("flags wrong: %+v", s)
	}
	if len(s.Segments) != 8 {
		t.Errorf("segments = %d, want 8 (4 shell + 4 hole)", len(s.Segments))
	}
	for _, ts := range s.Segments {
		if ts.Role != RoleRingBoundary {
			t.Error("polygon segment not tagged as ring boundary")
		}
	}
	if len(s.BoundaryPoints) != 0 {
		t.Error("polygon should have no point boundary")
	}
}

func TestBuildSoupLines(t *testing.T) {
	l := Line(Pt(0, 0), Pt(2, 0), Pt(2, 2))
	s := BuildSoup(l)
	if s.HasArea || !s.HasLine || s.HasPoint {
		t.Errorf("flags wrong: %+v", s)
	}
	if len(s.Segments) != 2 {
		t.Errorf("segments = %d, want 2", len(s.Segments))
	}
	if len(s.BoundaryPoints) != 2 {
		t.Errorf("boundary points = %d, want 2", len(s.BoundaryPoints))
	}
	// Closed line: empty boundary.
	closed := Line(Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 0))
	s = BuildSoup(closed)
	if len(s.BoundaryPoints) != 0 {
		t.Errorf("closed line boundary points = %d, want 0", len(s.BoundaryPoints))
	}
	// Two lines sharing an endpoint: mod-2 removes the shared point.
	ml := MultiLineString{Lines: []LineString{
		Line(Pt(0, 0), Pt(2, 0)),
		Line(Pt(2, 0), Pt(4, 0)),
	}}
	s = BuildSoup(ml)
	if len(s.BoundaryPoints) != 2 {
		t.Fatalf("multiline boundary points = %d, want 2", len(s.BoundaryPoints))
	}
	for _, p := range s.BoundaryPoints {
		if p.Equal(Pt(2, 0)) {
			t.Error("shared endpoint must not be a boundary point (mod-2)")
		}
	}
}

func TestBuildSoupPoints(t *testing.T) {
	s := BuildSoup(MultiPoint{Points: []Point{Pt(1, 1), Pt(2, 2)}})
	if !s.HasPoint || s.HasLine || s.HasArea {
		t.Errorf("flags wrong: %+v", s)
	}
	if len(s.InteriorPoints) != 2 {
		t.Errorf("interior points = %d", len(s.InteriorPoints))
	}
	s = BuildSoup(Pt(1, 1))
	if !s.HasPoint || len(s.InteriorPoints) != 1 {
		t.Error("point soup wrong")
	}
}

func TestNodeSoupsCrossing(t *testing.T) {
	a := BuildSoup(Line(Pt(0, 0), Pt(4, 0)))
	b := BuildSoup(Line(Pt(2, -2), Pt(2, 2)))
	res := NodeSoups(a, b, new(Scratch))
	if len(res.Nodes) != 1 || !res.Nodes[0].Equal(Pt(2, 0)) {
		t.Fatalf("nodes = %+v, want [(2,0)]", res.Nodes)
	}
	if len(res.SubA) != 2 {
		t.Errorf("subA = %d pieces, want 2", len(res.SubA))
	}
	if len(res.SubB) != 2 {
		t.Errorf("subB = %d pieces, want 2", len(res.SubB))
	}
	// The pieces must partition the original segment.
	var total float64
	for _, ts := range res.SubA {
		total += ts.Seg.A.DistanceTo(ts.Seg.B)
	}
	if math.Abs(total-4) > 1e-9 {
		t.Errorf("subA total length = %v, want 4", total)
	}
}

func TestNodeSoupsNoIntersection(t *testing.T) {
	a := BuildSoup(Line(Pt(0, 0), Pt(1, 0)))
	b := BuildSoup(Line(Pt(0, 5), Pt(1, 5)))
	res := NodeSoups(a, b, new(Scratch))
	if len(res.Nodes) != 0 {
		t.Errorf("nodes = %+v, want none", res.Nodes)
	}
	if len(res.SubA) != 1 || len(res.SubB) != 1 {
		t.Error("segments should pass through unsplit")
	}
}

func TestNodeSoupsOverlap(t *testing.T) {
	a := BuildSoup(Line(Pt(0, 0), Pt(4, 0)))
	b := BuildSoup(Line(Pt(2, 0), Pt(6, 0)))
	res := NodeSoups(a, b, new(Scratch))
	// Overlap endpoints (2,0) and (4,0) become nodes.
	if len(res.Nodes) != 2 {
		t.Fatalf("nodes = %+v, want 2", res.Nodes)
	}
	// a splits into [0,2] and [2,4]; b into [2,4] and [4,6].
	if len(res.SubA) != 2 || len(res.SubB) != 2 {
		t.Errorf("pieces: subA=%d subB=%d, want 2 and 2", len(res.SubA), len(res.SubB))
	}
}

func TestNodeSoupsRingCrossing(t *testing.T) {
	// Two overlapping squares: each ring is cut twice.
	a := BuildSoup(Rect(0, 0, 4, 4))
	b := BuildSoup(Rect(2, 2, 6, 6))
	res := NodeSoups(a, b, new(Scratch))
	if len(res.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2 (boundary crossings)", len(res.Nodes))
	}
	// Each square's 4 edges gain 2 cuts total -> 6 pieces.
	if len(res.SubA) != 6 || len(res.SubB) != 6 {
		t.Errorf("pieces: subA=%d subB=%d, want 6 and 6", len(res.SubA), len(res.SubB))
	}
	// All pieces keep the ring role.
	for _, ts := range append(res.SubA, res.SubB...) {
		if ts.Role != RoleRingBoundary {
			t.Error("ring piece lost its role")
		}
	}
}

func TestNodeSoupsVertexTouch(t *testing.T) {
	// Squares touching at a single corner.
	a := BuildSoup(Rect(0, 0, 2, 2))
	b := BuildSoup(Rect(2, 2, 4, 4))
	res := NodeSoups(a, b, new(Scratch))
	if len(res.Nodes) != 1 || !res.Nodes[0].Equal(Pt(2, 2)) {
		t.Fatalf("nodes = %+v, want single corner", res.Nodes)
	}
}

func TestParamOnClamps(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(4, 0)}
	if got := paramOn(s, Pt(2, 0)); got != 0.5 {
		t.Errorf("paramOn mid = %v", got)
	}
	if got := paramOn(s, Pt(-1, 0)); got != 0 {
		t.Errorf("paramOn before = %v", got)
	}
	if got := paramOn(s, Pt(9, 0)); got != 1 {
		t.Errorf("paramOn after = %v", got)
	}
	if got := paramOn(Segment{Pt(1, 1), Pt(1, 1)}, Pt(5, 5)); got != 0 {
		t.Errorf("paramOn degenerate = %v", got)
	}
}
