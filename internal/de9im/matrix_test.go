package de9im

import (
	"testing"

	"repro/internal/geom"
)

func TestDimRune(t *testing.T) {
	cases := map[Dim]byte{F: 'F', D0: '0', D1: '1', D2: '2', Dim(7): '?'}
	for d, want := range cases {
		if got := d.Rune(); got != want {
			t.Errorf("Dim(%d).Rune() = %c, want %c", d, got, want)
		}
	}
}

func TestNewMatrixAllEmpty(t *testing.T) {
	m := NewMatrix()
	if m.String() != "FFFFFFFFF" {
		t.Errorf("new matrix = %s", m)
	}
}

func TestMatrixSetMonotone(t *testing.T) {
	m := NewMatrix()
	m.Set(0, 0, D1)
	m.Set(0, 0, D0) // must not lower
	if m[0][0] != D1 {
		t.Errorf("Set lowered entry to %v", m[0][0])
	}
	m.Set(0, 0, D2)
	if m[0][0] != D2 {
		t.Errorf("Set did not raise entry: %v", m[0][0])
	}
}

func TestMatrixTranspose(t *testing.T) {
	m := NewMatrix()
	m.Set(Int, Ext, D2)
	m.Set(Bnd, Int, D1)
	tr := m.Transpose()
	if tr[Ext][Int] != D2 || tr[Int][Bnd] != D1 {
		t.Errorf("transpose = %s", tr)
	}
	if tr.Transpose() != m {
		t.Error("double transpose must be identity")
	}
}

func TestMatrixMatches(t *testing.T) {
	m := Matrix{{D2, D1, D2}, {F, D1, D1}, {F, F, D2}}
	if m.String() != "212F11FF2" {
		t.Fatalf("String = %s, want 212F11FF2", m)
	}
	cases := []struct {
		pattern string
		want    bool
	}{
		{"*********", true},
		{"212F11FF2", true},
		{"T*T***FF*", true},
		{"T********", true},
		{"F********", false},
		{"***T*****", false},
		{"2********", true},
		{"1********", false},
	}
	for _, tc := range cases {
		if got := m.Matches(tc.pattern); got != tc.want {
			t.Errorf("Matches(%q) = %v, want %v", tc.pattern, got, tc.want)
		}
	}
}

func TestMatrixMatchesPanics(t *testing.T) {
	m := NewMatrix()
	mustPanic(t, func() { m.Matches("short") })
	mustPanic(t, func() { m.Matches("XXXXXXXXX") })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestLocToCol(t *testing.T) {
	if locToCol(geom.Interior) != Int || locToCol(geom.Boundary) != Bnd ||
		locToCol(geom.Exterior) != Ext {
		t.Error("locToCol mapping wrong")
	}
}

// ogcPredicates are the OGC Simple Features named predicates whose
// patterns do not depend on the operands' dimensions; a predicate holds
// when any of its patterns matches.
var ogcPredicates = []struct {
	name     string
	patterns []string
}{
	{"equals", []string{"T*F**FFF*"}},
	{"disjoint", []string{"FF*FF****"}},
	{"intersects", []string{"T********", "*T*******", "***T*****", "****T****"}},
	{"touches", []string{"FT*******", "F**T*****", "F***T****"}},
	{"within", []string{"T*F**F***"}},
	{"contains", []string{"T*****FF*"}},
	{"covers", []string{"T*****FF*", "*T****FF*", "***T**FF*", "****T*FF*"}},
	{"coveredBy", []string{"T*F**F***", "*TF**F***", "**FT*F***", "**F*TF***"}},
}

func TestOGCPatterns(t *testing.T) {
	big := "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"
	cases := []struct {
		name  string
		a, b  string
		holds []string
	}{
		{"strict containment", big, "POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))",
			[]string{"intersects", "contains", "covers"}},
		// OGC contains holds with boundary contact, unlike the strict
		// Egenhofer reading the relation classifier uses.
		{"containment with boundary contact", big, "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
			[]string{"intersects", "contains", "covers"}},
		{"within with boundary contact", "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", big,
			[]string{"intersects", "within", "coveredBy"}},
		{"equal", big, big,
			[]string{"equals", "intersects", "within", "contains", "covers", "coveredBy"}},
		{"disjoint", big, "POLYGON ((20 20, 22 20, 22 22, 20 22, 20 20))",
			[]string{"disjoint"}},
		{"edge touch", big, "POLYGON ((10 0, 14 0, 14 4, 10 4, 10 0))",
			[]string{"intersects", "touches"}},
		{"line across", "LINESTRING (-2 2, 12 2)", big,
			[]string{"intersects"}},
		// A point on the rim meets only the boundary, which OGC counts
		// as both touching and covered.
		{"point on boundary", "POINT (10 5)", big,
			[]string{"intersects", "touches", "coveredBy"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := Relate(wkt(tc.a), wkt(tc.b))
			for _, p := range ogcPredicates {
				want := false
				for _, h := range tc.holds {
					want = want || h == p.name
				}
				got := false
				for _, pat := range p.patterns {
					got = got || m.Matches(pat)
				}
				if got != want {
					t.Errorf("%s on %s = %v, want %v", p.name, m, got, want)
				}
			}
		})
	}
}

func TestMatrixStringIsItsOwnPattern(t *testing.T) {
	// Printed as a pattern, a matrix matches itself and no other matrix,
	// so a failure message names exactly the matrix it saw.
	shapes := []string{
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
		"POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))",
		"POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))",
		"POLYGON ((4 0, 8 0, 8 4, 4 4, 4 0))",
		"LINESTRING (-2 2, 6 2)",
		"LINESTRING (0 0, 4 0)",
		"POINT (2 2)",
		"POINT (4 2)",
		"MULTIPOINT ((2 2), (9 9))",
	}
	seen := map[Matrix]bool{}
	for _, a := range shapes {
		for _, b := range shapes {
			seen[Relate(wkt(a), wkt(b))] = true
		}
	}
	seen[NewMatrix()] = true
	for m := range seen {
		for other := range seen {
			if got := m.Matches(other.String()); got != (m == other) {
				t.Errorf("%s.Matches(%q) = %v", m, other.String(), got)
			}
		}
	}
}
