package de9im

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// randomRelateGeometry draws a geometry of a random kind on a small
// half-integer lattice so pairs frequently touch, overlap, share
// vertices, or nest — the regimes where the prepared edge-tree queries
// must reproduce the unprepared scans bit for bit.
func randomRelateGeometry(rng *rand.Rand) geom.Geometry {
	half := func(n int) float64 { return float64(rng.Intn(n)) / 2 }
	switch rng.Intn(7) {
	case 0: // rectangle
		x, y := half(12), half(12)
		return geom.Rect(x, y, x+0.5+half(8), y+0.5+half(8))
	case 1: // jittered convex n-gon
		cx, cy := 1+half(10), 1+half(10)
		r := 0.5 + half(5)
		n := 5 + rng.Intn(8)
		var coords []geom.Point
		for k := 0; k < n; k++ {
			ang := 2 * math.Pi * float64(k) / float64(n)
			rr := r * (0.7 + 0.3*rng.Float64())
			coords = append(coords, geom.Pt(cx+rr*math.Cos(ang), cy+rr*math.Sin(ang)))
		}
		return geom.Polygon{Shell: geom.Ring{Coords: coords}}
	case 2: // donut
		x, y := half(8), half(8)
		return geom.Polygon{
			Shell: geom.Ring{Coords: []geom.Point{geom.Pt(x, y), geom.Pt(x+4, y), geom.Pt(x+4, y+4), geom.Pt(x, y+4)}},
			Holes: []geom.Ring{{Coords: []geom.Point{geom.Pt(x+1.5, y+1.5), geom.Pt(x+2.5, y+1.5), geom.Pt(x+2.5, y+2.5), geom.Pt(x+1.5, y+2.5)}}},
		}
	case 3: // multipolygon
		x, y := half(6), half(6)
		return geom.MultiPolygon{Polygons: []geom.Polygon{
			geom.Rect(x, y, x+1.5, y+1.5),
			geom.Rect(x+3, y+3, x+4.5, y+4.5),
		}}
	case 4: // polyline (sometimes closed)
		x, y := half(12), half(12)
		coords := []geom.Point{geom.Pt(x, y)}
		for k := 0; k < 2+rng.Intn(4); k++ {
			x += half(6) - 1.5
			y += half(6) - 1.5
			coords = append(coords, geom.Pt(x, y))
		}
		if rng.Intn(3) == 0 {
			coords = append(coords, coords[0])
		}
		return geom.LineString{Coords: coords}
	case 5: // multiline with a shared endpoint (mod-2 boundary rule)
		x, y := half(10), half(10)
		return geom.MultiLineString{Lines: []geom.LineString{
			geom.Line(geom.Pt(x, y), geom.Pt(x+2, y)),
			geom.Line(geom.Pt(x+2, y), geom.Pt(x+2, y+2)),
		}}
	default: // point / multipoint
		if rng.Intn(2) == 0 {
			return geom.Pt(half(16), half(16))
		}
		return geom.MultiPoint{Points: []geom.Point{
			geom.Pt(half(16), half(16)),
			geom.Pt(half(16), half(16)),
		}}
	}
}

// TestRelatePreparedMatchesRelate is the core equivalence property of the
// prepared-geometry layer: the matrix (and hence every classification
// built on it) must be exactly the unprepared one for arbitrary pairs.
func TestRelatePreparedMatchesRelate(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 500; trial++ {
		a := randomRelateGeometry(rng)
		b := randomRelateGeometry(rng)
		pa, pb := geom.Prepare(a), geom.Prepare(b)
		want := Relate(a, b)
		got := RelatePrepared(pa, pb)
		if got != want {
			t.Fatalf("trial %d: RelatePrepared=%s Relate=%s\n a=%s\n b=%s",
				trial, got, want, a.WKT(), b.WKT())
		}
		// Prepared values are immutable: a second relate of the same pair
		// must not be perturbed by the first.
		if again := RelatePrepared(pa, pb); again != want {
			t.Fatalf("trial %d: second RelatePrepared=%s want %s", trial, again, want)
		}
	}
}

func TestRelatePreparedEmptyOperands(t *testing.T) {
	poly := geom.Rect(0, 0, 2, 2)
	cases := []struct{ a, b geom.Geometry }{
		{nil, nil},
		{nil, poly},
		{poly, nil},
		{geom.MultiPoint{}, poly},
		{poly, geom.LineString{}},
		{geom.MultiPolygon{}, geom.MultiLineString{}},
	}
	for i, c := range cases {
		want := Relate(c.a, c.b)
		got := RelatePrepared(geom.Prepare(c.a), geom.Prepare(c.b))
		if got != want {
			t.Errorf("case %d: prepared=%s unprepared=%s", i, got, want)
		}
	}
}

// FuzzRelatePrepared cross-checks the prepared relate against the
// unprepared oracle on arbitrary WKT pairs.
func FuzzRelatePrepared(f *testing.F) {
	seeds := [][2]string{
		{"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))"},
		{"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))", "POINT (3 3)"},
		{"LINESTRING (0 0, 5 5)", "LINESTRING (0 5, 5 0)"},
		{"MULTILINESTRING ((0 0, 1 0), (1 0, 1 1))", "POINT (1 0)"},
		{"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((2 2, 3 2, 3 3, 2 3, 2 2)))", "LINESTRING (0 0, 3 3)"},
		{"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "POLYGON ((4 0, 8 0, 8 4, 4 4, 4 0))"},
		{"MULTIPOINT ((1 1), (2 2))", "LINESTRING (0 0, 3 3)"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, wa, wb string) {
		a, err := geom.ParseWKT(wa)
		if err != nil {
			return
		}
		b, err := geom.ParseWKT(wb)
		if err != nil {
			return
		}
		// Guard against coordinates that overflow the arithmetic into
		// NaN/Inf; the geometric predicates are only meaningful on finite
		// inputs.
		for _, g := range []geom.Geometry{a, b} {
			env := g.Envelope()
			if !g.IsEmpty() {
				for _, v := range []float64{env.MinX, env.MinY, env.MaxX, env.MaxY} {
					if math.IsNaN(v) || math.Abs(v) > 1e9 {
						return
					}
				}
			}
		}
		want := Relate(a, b)
		got := RelatePrepared(geom.Prepare(a), geom.Prepare(b))
		if got != want {
			t.Fatalf("RelatePrepared=%s Relate=%s\n a=%s\n b=%s", got, want, wa, wb)
		}
	})
}
