package qsr

import (
	"math"
	"testing"

	"repro/internal/de9im"
	"repro/internal/geom"
)

func wkt(s string) geom.Geometry { return geom.MustParseWKT(s) }

// topological classifies two WKT geometries, failing the test when the
// classifier reports no relation.
func topological(t *testing.T, a, b string) Relation {
	t.Helper()
	r, ok := Topological(wkt(a), wkt(b))
	if !ok {
		t.Fatalf("Topological(%s, %s): no relation", a, b)
	}
	return r
}

// inverse is the relation seen from the swapped operand order: the
// containment relations swap with their converses, and equals, disjoint,
// touches, crosses and overlaps are symmetric.
var inverse = map[Relation]Relation{
	Contains: Within, Within: Contains, Covers: CoveredBy, CoveredBy: Covers,
	Equals: Equals, Disjoint: Disjoint, Touches: Touches, Crosses: Crosses, Overlaps: Overlaps,
}

func TestClassifyPolygonPolygon(t *testing.T) {
	// The "Nonoai district" scenarios of the paper's Figure 2: a district
	// touches slum180, covers slum183, overlaps slum174 and contains
	// slum159 — plus equals and disjoint for completeness.
	district := "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"
	donut := "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (3 3, 7 3, 7 7, 3 7, 3 3))"
	cases := []struct {
		name string
		a, b string
		want Relation
	}{
		{"contains (strictly inside)", district, "POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))", Contains},
		{"covers (inside, shared edge)", district, "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", Covers},
		{"touches (external edge)", district, "POLYGON ((10 0, 14 0, 14 4, 10 4, 10 0))", Touches},
		{"touches (corner only)", district, "POLYGON ((10 10, 12 10, 12 12, 10 12, 10 10))", Touches},
		{"overlaps (straddles boundary)", district, "POLYGON ((8 8, 14 8, 14 14, 8 14, 8 8))", Overlaps},
		{"equals", district, district, Equals},
		{"disjoint", district, "POLYGON ((20 20, 22 20, 22 22, 20 22, 20 20))", Disjoint},
		// A polygon exactly filling a hole meets it along the hole's ring
		// only; one covering donut and hole contains it strictly.
		{"touches (fills the hole)", "POLYGON ((3 3, 7 3, 7 7, 3 7, 3 3))", donut, Touches},
		{"contains (covers the hole)", "POLYGON ((-1 -1, 11 -1, 11 11, -1 11, -1 -1))", donut, Contains},
		{"touches (shared vertex only)", "POLYGON ((0 0, 2 0, 0 2, 0 0))", "POLYGON ((2 0, 4 0, 4 2, 2 0))", Touches},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := topological(t, tc.a, tc.b); got != tc.want {
				t.Errorf("Topological = %v, want %v", got, tc.want)
			}
			// The inverse relation must hold in the other direction.
			if inv := topological(t, tc.b, tc.a); inv != inverse[tc.want] {
				t.Errorf("inverse Topological = %v, want %v", inv, inverse[tc.want])
			}
		})
	}
}

func TestClassifyWithinCoveredBy(t *testing.T) {
	big := "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"
	small := "POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))"
	if got := topological(t, small, big); got != Within {
		t.Errorf("small in big = %v, want within", got)
	}
	edge := "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"
	if got := topological(t, edge, big); got != CoveredBy {
		t.Errorf("edge-sharing in big = %v, want coveredBy", got)
	}
}

func TestClassifyPointCases(t *testing.T) {
	sq := "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"
	cases := []struct {
		name string
		a, b string
		want Relation
	}{
		// The paper's "district contains policeCenter" point predicate.
		{"polygon contains interior point", sq, "POINT (2 2)", Contains},
		{"point within polygon", "POINT (2 2)", sq, Within},
		{"boundary point touches", "POINT (4 2)", sq, Touches},
		{"outside point disjoint", "POINT (9 9)", sq, Disjoint},
		{"equal points", "POINT (1 1)", "POINT (1 1)", Equals},
		{"point within line", "POINT (2 0)", "LINESTRING (0 0, 4 0)", Within},
		{"point touches line endpoint", "POINT (0 0)", "LINESTRING (0 0, 4 0)", Touches},
		{"multipoint partly inside crosses", "MULTIPOINT ((2 2), (9 9))", sq, Crosses},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := topological(t, tc.a, tc.b); got != tc.want {
				t.Errorf("Topological = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestClassifyLineCases(t *testing.T) {
	sq := "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"
	cases := []struct {
		name string
		a, b string
		want Relation
	}{
		// The paper's "city crossed by river" predicate.
		{"line crosses polygon", "LINESTRING (-2 2, 6 2)", sq, Crosses},
		{"line within polygon", "LINESTRING (1 1, 3 3)", sq, Within},
		{"line coveredBy polygon (endpoint on rim)", "LINESTRING (0 2, 2 2)", sq, CoveredBy},
		{"line touches polygon edge", "LINESTRING (0 0, 4 0)", sq, Touches},
		{"line touches at endpoint", "LINESTRING (4 2, 8 2)", sq, Touches},
		{"line disjoint", "LINESTRING (9 9, 12 12)", sq, Disjoint},
		{"lines cross", "LINESTRING (0 0, 4 4)", "LINESTRING (0 4, 4 0)", Crosses},
		{"lines overlap", "LINESTRING (0 0, 4 0)", "LINESTRING (2 0, 6 0)", Overlaps},
		{"lines touch endpoints", "LINESTRING (0 0, 2 0)", "LINESTRING (2 0, 4 0)", Touches},
		{"line within line", "LINESTRING (1 0, 3 0)", "LINESTRING (0 0, 4 0)", Within},
		{"line coveredBy line (shared endpoint)", "LINESTRING (0 0, 3 0)", "LINESTRING (0 0, 4 0)", CoveredBy},
		{"lines equal", "LINESTRING (0 0, 4 0)", "LINESTRING (0 0, 4 0)", Equals},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := topological(t, tc.a, tc.b); got != tc.want {
				t.Errorf("Topological = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestClassifyEmpty(t *testing.T) {
	pt := wkt("POINT (0 0)")
	if r, ok := Topological(geom.MultiPoint{}, pt); ok {
		t.Errorf("empty operand = %v, want no relation", r)
	}
	if r, ok := Topological(nil, pt); ok {
		t.Errorf("nil operand = %v, want no relation", r)
	}
	if r, ok := TopologicalPrepared(geom.Prepare(pt), geom.Prepare(geom.MultiPoint{})); ok {
		t.Errorf("empty prepared operand = %v, want no relation", r)
	}
}

func TestClassifyMutuallyExclusive(t *testing.T) {
	// Over a grid of shifted squares, exactly one canonical relation holds
	// and it is consistent with the inverse classification.
	base := wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	for dx := -5.0; dx <= 5; dx++ {
		for dy := -5.0; dy <= 5; dy++ {
			other := geom.Translate(base, dx, dy)
			r, ok := Topological(base, other)
			if !ok {
				t.Fatalf("no relation for shift (%v, %v)", dx, dy)
			}
			if inv, _ := Topological(other, base); inv != inverse[r] {
				t.Errorf("shift (%v,%v): %v vs inverse %v", dx, dy, r, inv)
			}
		}
	}
}

func TestClassifyOverlapsSameDimLines(t *testing.T) {
	// Collinear partial overlap is overlaps (dim 1 interior intersection).
	if got := topological(t, "LINESTRING (0 0, 4 0)", "LINESTRING (2 0, 6 0)"); got != Overlaps {
		t.Errorf("collinear overlap = %v, want overlaps", got)
	}
	// X crossing has a 0-dim interior intersection: crosses.
	if got := topological(t, "LINESTRING (0 4, 4 0)", "LINESTRING (0 0, 4 4)"); got != Crosses {
		t.Errorf("X crossing = %v, want crosses", got)
	}
}

func TestInverseAgreesWithRCC8Converse(t *testing.T) {
	// The swap table the tests above rely on is an involution, and on the
	// region relations it is RCC8's converse.
	for r := Equals; r <= Overlaps; r++ {
		inv, ok := inverse[r]
		if !ok {
			t.Fatalf("no inverse for %v", r)
		}
		if inverse[inv] != r {
			t.Errorf("inverse of inverse of %v = %v", r, inverse[inv])
		}
		c, ok := ToRCC8(r)
		if !ok {
			continue
		}
		if ci, _ := ToRCC8(inv); ci != c.Converse() {
			t.Errorf("%v: inverse %v is %v in RCC8, converse of %v is %v", r, inv, ci, c, c.Converse())
		}
	}
}

// anyMatch reports whether m matches any of the DE-9IM patterns.
func anyMatch(m de9im.Matrix, patterns ...string) bool {
	for _, p := range patterns {
		if m.Matches(p) {
			return true
		}
	}
	return false
}

// implies states, as OGC Simple Features patterns, what each classified
// relation says about the matrix of operands of dimensions dimA and dimB.
// Contains and within are the strict readings (no boundary contact);
// covers and coveredBy are the OGC predicates less the strict case.
var implies = map[Relation]func(m de9im.Matrix, dimA, dimB int) bool{
	Equals:   func(m de9im.Matrix, _, _ int) bool { return m.Matches("T*F**FFF*") },
	Disjoint: func(m de9im.Matrix, _, _ int) bool { return m.Matches("FF*FF****") },
	Touches: func(m de9im.Matrix, _, _ int) bool {
		return anyMatch(m, "FT*******", "F**T*****", "F***T****")
	},
	Contains: func(m de9im.Matrix, _, _ int) bool { return m.Matches("T**FF*FF*") },
	Covers: func(m de9im.Matrix, _, _ int) bool {
		return anyMatch(m, "T*****FF*", "*T****FF*", "***T**FF*", "****T*FF*") && !m.Matches("T**FF*FF*")
	},
	Within: func(m de9im.Matrix, _, _ int) bool { return m.Matches("TFF*FF***") },
	CoveredBy: func(m de9im.Matrix, _, _ int) bool {
		return anyMatch(m, "T*F**F***", "*TF**F***", "**FT*F***", "**F*TF***") && !m.Matches("TFF*FF***")
	},
	Crosses: func(m de9im.Matrix, dimA, dimB int) bool {
		switch {
		case dimA < dimB:
			return m.Matches("T*T******")
		case dimA > dimB:
			return m.Matches("T*****T**")
		case dimA == 1:
			return m.Matches("0********")
		}
		return false
	},
	Overlaps: func(m de9im.Matrix, dimA, dimB int) bool {
		switch {
		case dimA != dimB:
			return false
		case dimA == 1:
			return m.Matches("1*T***T**")
		}
		return m.Matches("T*T***T**")
	},
}

func TestClassifyRefinesOGCPredicates(t *testing.T) {
	// Over every ordered pair of a pool of shapes, the relation the
	// classifier returns satisfies its OGC definition, and the pool
	// reaches each of the nine relations.
	shapes := []string{
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
		"POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
		"POLYGON ((10 0, 14 0, 14 4, 10 4, 10 0))",
		"POLYGON ((8 8, 14 8, 14 14, 8 14, 8 8))",
		"POLYGON ((20 20, 22 20, 22 22, 20 22, 20 20))",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (3 3, 7 3, 7 7, 3 7, 3 3))",
		"POLYGON ((3 3, 7 3, 7 7, 3 7, 3 3))",
		"LINESTRING (-2 2, 12 2)",
		"LINESTRING (1 1, 2 2)",
		"LINESTRING (0 5, 2 5)",
		"LINESTRING (0 0, 10 0)",
		"LINESTRING (5 -1, 5 1)",
		"LINESTRING (8 0, 12 0)",
		"POINT (2 2)",
		"POINT (10 5)",
		"POINT (30 30)",
		"MULTIPOINT ((2 2), (30 30))",
		"MULTIPOINT ((2 2), (10 5))",
	}
	type pair struct {
		a, b geom.Geometry
		m    de9im.Matrix
	}
	byRelation := map[Relation][]pair{}
	for _, sa := range shapes {
		for _, sb := range shapes {
			a, b := wkt(sa), wkt(sb)
			r, ok := Topological(a, b)
			if !ok {
				t.Fatalf("Topological(%s, %s): no relation", sa, sb)
			}
			byRelation[r] = append(byRelation[r], pair{a, b, de9im.Relate(a, b)})
		}
	}
	for r := Equals; r <= Overlaps; r++ {
		t.Run(r.String(), func(t *testing.T) {
			if len(byRelation[r]) == 0 {
				t.Fatalf("no pair of the pool is classified %v", r)
			}
			for _, p := range byRelation[r] {
				if !implies[r](p.m, p.a.Dimension(), p.b.Dimension()) {
					t.Errorf("%s %v %s, but the matrix %s does not satisfy it", p.a.WKT(), r, p.b.WKT(), p.m)
				}
			}
		})
	}
}

// ngon returns a regular n-gon of radius r centred on (cx, cy).
func ngon(n int, cx, cy, r float64) geom.Polygon {
	coords := make([]geom.Point, n)
	for i := range coords {
		theta := 2 * math.Pi * float64(i) / float64(n)
		coords[i] = geom.Pt(cx+r*math.Cos(theta), cy+r*math.Sin(theta))
	}
	return geom.Polygon{Shell: geom.Ring{Coords: coords}}
}

func BenchmarkClassify(b *testing.B) {
	a := ngon(16, 0, 0, 10)
	c := ngon(16, 3, 0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, _ := Topological(a, c); got != Contains {
			b.Fatalf("relation = %v", got)
		}
	}
}
