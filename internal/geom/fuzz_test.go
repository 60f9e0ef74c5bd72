package geom

import (
	"math"
	"testing"
)

// FuzzParseWKT hardens the WKT parser: arbitrary input must never panic,
// and successfully parsed geometries must round-trip through their own
// WKT rendering.
func FuzzParseWKT(f *testing.F) {
	seeds := []string{
		"POINT (1 2)",
		"POINT EMPTY",
		"MULTIPOINT ((1 1), (2 2))",
		"MULTIPOINT (1 1, 2 2)",
		"LINESTRING (0 0, 1 1, 2 0)",
		"MULTILINESTRING ((0 0, 1 0), (0 1, 1 1))",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)))",
		"POINT (1e10 -2.5e-3)",
		"  point\t( 7   8 ) ",
		"POLYGON ((",
		"POINT (a b)",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseWKT(s)
		if err != nil {
			return
		}
		wkt := g.WKT()
		back, err := ParseWKT(wkt)
		if err != nil {
			t.Fatalf("rendered WKT does not re-parse: %q -> %q: %v", s, wkt, err)
		}
		if back.WKT() != wkt {
			t.Fatalf("WKT not a fixed point: %q -> %q", wkt, back.WKT())
		}
	})
}

// FuzzRelateRectangles stresses the DE-9IM machinery with arbitrary
// rectangle pairs: the matrix diagonal entries must stay within their
// dimensional bounds and transposition must hold.
func FuzzRelateRectangles(f *testing.F) {
	f.Add(0.0, 0.0, 4.0, 4.0, 2.0, 2.0, 6.0, 6.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 2.0, 1.0)
	f.Fuzz(func(t *testing.T, ax, ay, aw, ah, bx, by, bw, bh float64) {
		clamp := func(v float64) float64 {
			if v != v || v > 1e6 || v < -1e6 {
				return 0
			}
			return v
		}
		size := func(v float64) float64 {
			v = clamp(v)
			if v < 0 {
				v = -v
			}
			return v + 0.5
		}
		a := Rect(clamp(ax), clamp(ay), clamp(ax)+size(aw), clamp(ay)+size(ah))
		b := Rect(clamp(bx), clamp(by), clamp(bx)+size(bw), clamp(by)+size(bh))
		// Must not panic; Locate of each centroid must be consistent
		// with distance 0.
		if Locate(a.Centroid(), a) != Interior {
			t.Fatal("centroid of a rectangle must be interior")
		}
		if Distance(a, b) == 0 != Intersects(a, b) {
			t.Fatal("Distance and Intersects disagree")
		}
	})
}

// FuzzDistancePrepared requires the prepared distance kernel to return
// exactly the brute-force Distance, bit for bit, on arbitrary WKT pairs.
func FuzzDistancePrepared(f *testing.F) {
	seeds := [][2]string{
		{"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "POLYGON ((7 1, 9 1, 9 3, 7 3, 7 1))"},
		{"LINESTRING (0 0, 3 1, 6 0)", "POINT (3 1.5)"},
		{"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))", "LINESTRING (2 0, 3 4, 4 4.5)"},
		{"MULTIPOINT ((1 3), (4 -2))", "LINESTRING (0 0, 5 0)"},
		// Two one-leaf trees: the second pair touches within Eps (distance
		// 0) though its envelopes lie farther apart than the first pair's
		// distance, so an unguarded entry-level prune skips it.
		{"MULTILINESTRING ((0 0, 50 0), (100 0, 101 0))",
			"MULTILINESTRING ((0 0.00000000105, -10 10), (101.0000000009 0.0000000009, 102 0.0000000009))"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, wa, wb string) {
		a, err := ParseWKT(wa)
		if err != nil {
			return
		}
		b, err := ParseWKT(wb)
		if err != nil {
			return
		}
		// As in FuzzRelatePrepared: the kernels are only meaningful on
		// coordinates whose arithmetic cannot overflow into NaN/Inf.
		for _, g := range []Geometry{a, b} {
			env := g.Envelope()
			if !g.IsEmpty() {
				for _, v := range []float64{env.MinX, env.MinY, env.MaxX, env.MaxY} {
					if math.IsNaN(v) || math.Abs(v) > 1e9 {
						return
					}
				}
			}
		}
		want := Distance(a, b)
		got := Prepare(a).DistanceTo(Prepare(b))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DistanceTo=%v Distance=%v\n a=%s\n b=%s", got, want, wa, wb)
		}
	})
}
