package de9im

import "repro/internal/geom"

// operand abstracts the two inputs of the relate computation so the same
// core serves raw geometries (derived structures built on demand, as
// before) and prepared geometries (everything cached in geom.Prepared and
// the hot queries answered through its edge tree). Both implementations
// perform identical floating-point arithmetic, so the matrices agree
// exactly. Locate takes the relate's scratch, which only the prepared
// operand uses.
type operand interface {
	IsEmpty() bool
	Envelope() geom.Envelope
	Soup() *geom.Soup
	Locate(p geom.Point, sc *geom.Scratch) geom.Location
	AreaSamples() []geom.Point
}

// preparedOperand is a prepared geometry as a relate operand. It is one
// pointer wide, so it converts to an operand without allocating.
type preparedOperand struct{ *geom.Prepared }

func (o preparedOperand) Locate(p geom.Point, sc *geom.Scratch) geom.Location {
	return o.LocateWith(p, sc)
}

// rawOperand wraps an unprepared geometry. The soup is built lazily and
// memoized so the short-circuit paths (empty operand, disjoint
// envelopes) keep their allocation profile, and the main path builds each
// soup once, as the previous implementation did.
type rawOperand struct {
	g    geom.Geometry
	soup *geom.Soup
}

func (o *rawOperand) IsEmpty() bool           { return o.g == nil || o.g.IsEmpty() }
func (o *rawOperand) Envelope() geom.Envelope { return o.g.Envelope() }
func (o *rawOperand) Soup() *geom.Soup {
	if o.soup == nil {
		o.soup = geom.BuildSoup(o.g)
	}
	return o.soup
}
func (o *rawOperand) Locate(p geom.Point, _ *geom.Scratch) geom.Location {
	return geom.Locate(p, o.g)
}
func (o *rawOperand) AreaSamples() []geom.Point { return geom.AreaSamples(o.g) }

// nodeOperands nodes the two operands' linework into sc: a tree join when
// both sides are prepared, the all-pairs sweep otherwise.
func nodeOperands(a, b operand, sc *geom.Scratch) geom.NodeResult {
	if pa, ok := a.(preparedOperand); ok {
		if pb, ok := b.(preparedOperand); ok {
			return geom.NodePrepared(pa.Prepared, pb.Prepared, sc)
		}
	}
	return geom.NodeSoups(a.Soup(), b.Soup(), sc)
}

// Relate computes the DE-9IM matrix of geometry a against geometry b.
//
// Algorithm: both geometries are decomposed into tagged linework and points
// (geom.BuildSoup); the linework is noded at every mutual intersection;
// each resulting sub-segment midpoint, isolated point, and node point is
// classified against the other geometry; finally the 2-D (area) entries are
// filled in by containment reasoning over the classified boundary pieces
// and per-component interior sample points.
//
// Inputs are assumed valid (simple rings, holes inside shells, multi-part
// members with disjoint interiors); geom.Validate can check this.
func Relate(a, b geom.Geometry) Matrix {
	oa, ob := rawOperand{g: a}, rawOperand{g: b}
	return relateOperands(&oa, &ob)
}

// RelatePrepared is Relate over prepared geometries: the cached soups,
// envelopes, and sample points are reused, point location is answered by
// the edge tree's stabbing and ray queries, and noding by a tree join.
// The matrix is exactly Relate(a.Geometry(), b.Geometry()).
func RelatePrepared(a, b *geom.Prepared) Matrix {
	return relateOperands(preparedOperand{a}, preparedOperand{b})
}

// relateOperands is the relate core shared by Relate and RelatePrepared.
func relateOperands(a, b operand) Matrix {
	m := NewMatrix()
	aEmpty, bEmpty := a.IsEmpty(), b.IsEmpty()
	m[Ext][Ext] = D2 // two bounded (possibly empty) geometries in the plane
	if aEmpty && bEmpty {
		return m
	}
	if aEmpty {
		t := relateOperands(b, a).Transpose()
		return t
	}
	if bEmpty {
		// All of a lies in b's exterior.
		fillAllExterior(&m, a.Soup(), false)
		return m
	}
	// Disjoint envelopes imply disjoint geometries: fill both exterior
	// slices directly and skip the noding machinery entirely. This is
	// the common case of a spatial join after the index filter.
	if !a.Envelope().Buffer(geom.Eps).Intersects(b.Envelope()) {
		fillAllExterior(&m, a.Soup(), false)
		fillAllExterior(&m, b.Soup(), true)
		return m
	}

	// One scratch holds the noding's output and every Locate's buffers
	// for the rest of the relate.
	sc := geom.GetScratch()
	defer sc.Release()
	sa, sb := a.Soup(), b.Soup()
	noded := nodeOperands(a, b, sc)

	// Classification evidence gathered along the way, used by the area
	// entries below.
	var (
		aRingInIntB, aRingOnBndB, aRingInExtB bool
		bRingInIntA, bRingOnBndA, bRingInExtA bool
	)

	// Classify a's sub-segments against b.
	for _, ts := range noded.SubA {
		loc := b.Locate(ts.Seg.Midpoint(), sc)
		row := Int
		if ts.Role == geom.RoleRingBoundary {
			row = Bnd
			switch loc {
			case geom.Interior:
				aRingInIntB = true
			case geom.Boundary:
				aRingOnBndB = true
			default:
				aRingInExtB = true
			}
		}
		m.Set(row, locToCol(loc), D1)
	}
	// Classify b's sub-segments against a (transposed roles).
	for _, ts := range noded.SubB {
		loc := a.Locate(ts.Seg.Midpoint(), sc)
		col := Int
		if ts.Role == geom.RoleRingBoundary {
			col = Bnd
			switch loc {
			case geom.Interior:
				bRingInIntA = true
			case geom.Boundary:
				bRingOnBndA = true
			default:
				bRingInExtA = true
			}
		}
		m.Set(rowOfLoc(loc), col, D1)
	}
	// Isolated interior points (Point/MultiPoint members).
	for _, p := range sa.InteriorPoints {
		m.Set(Int, locToCol(b.Locate(p, sc)), D0)
	}
	for _, p := range sb.InteriorPoints {
		m.Set(rowOfLoc(a.Locate(p, sc)), Int, D0)
	}
	// Linestring boundary (endpoint) points.
	for _, p := range sa.BoundaryPoints {
		m.Set(Bnd, locToCol(b.Locate(p, sc)), D0)
	}
	for _, p := range sb.BoundaryPoints {
		m.Set(rowOfLoc(a.Locate(p, sc)), Bnd, D0)
	}
	// Noding intersection points: 0-dimensional contacts that the
	// sub-segment midpoints cannot see (e.g. two rings meeting at a
	// single vertex).
	for _, p := range noded.Nodes {
		la, lb := a.Locate(p, sc), b.Locate(p, sc)
		m.Set(rowOfLoc(la), locToCol(lb), D0)
	}

	// Area (dimension-2) entries.
	if sa.HasArea || sb.HasArea {
		// Interior samples, one per polygonal component.
		samplesA := a.AreaSamples()
		samplesB := b.AreaSamples()
		var aSampleInIntB, aSampleInExtB, bSampleInIntA, bSampleInExtA bool
		for _, p := range samplesA {
			switch b.Locate(p, sc) {
			case geom.Interior:
				aSampleInIntB = true
			case geom.Exterior:
				aSampleInExtB = true
			}
		}
		for _, p := range samplesB {
			switch a.Locate(p, sc) {
			case geom.Interior:
				bSampleInIntA = true
			case geom.Exterior:
				bSampleInExtA = true
			}
		}
		if sa.HasArea && sb.HasArea {
			// Interior/interior overlap.
			if aRingInIntB || bRingInIntA || aSampleInIntB || bSampleInIntA {
				m.Set(Int, Int, D2)
			}
			// a's interior outside closure(b)?
			if aRingInExtB || bRingInIntA || aSampleInExtB {
				m.Set(Int, Ext, D2)
			}
			// b's interior outside closure(a)?
			if bRingInExtA || aRingInIntB || bSampleInExtA {
				m.Set(Ext, Int, D2)
			}
			_ = aRingOnBndB
			_ = bRingOnBndA
		} else if sa.HasArea {
			// b is lower-dimensional: it cannot cover a's interior.
			m.Set(Int, Ext, D2)
			// b's linework/points inside Int(a) already recorded by the
			// classification passes above.
		} else {
			m.Set(Ext, Int, D2)
		}
	}
	return m
}

// fillAllExterior records that every part of the souped geometry lies in
// the other operand's exterior: rows (transpose=false) or columns
// (transpose=true) against Ext.
func fillAllExterior(m *Matrix, s *geom.Soup, transpose bool) {
	set := func(r int, d Dim) {
		if transpose {
			m.Set(Ext, r, d)
		} else {
			m.Set(r, Ext, d)
		}
	}
	if s.HasArea {
		set(Int, D2)
		set(Bnd, D1)
	}
	if s.HasLine {
		set(Int, D1)
		if len(s.BoundaryPoints) > 0 {
			set(Bnd, D0)
		}
	}
	if s.HasPoint {
		set(Int, D0)
	}
}

// rowOfLoc maps a location of a point relative to geometry a onto the
// matrix row index.
func rowOfLoc(l geom.Location) int {
	switch l {
	case geom.Interior:
		return Int
	case geom.Boundary:
		return Bnd
	default:
		return Ext
	}
}
