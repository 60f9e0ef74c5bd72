package geom

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseWKT hardens the WKT parser: arbitrary input must never panic,
// and successfully parsed geometries must round-trip through their own
// WKT rendering. The input is also cut at each ';' into a batch, which
// ParseWKTAll must parse exactly as ParseWKT parses each source (the
// same geometries, and at the first bad source the same error text),
// with no two of its geometries sharing a slice an append could reach.
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
		"POINT (1 2);LINESTRING (0 0, 1 1);POLYGON ((0 0, 1 0, 1 1, 0 0), (0.2 0.1, 0.8 0.1, 0.8 0.7))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5), (5.2 5.1, 5.8 5.1, 5.8 5.7)));MULTIPOINT (1 1, 2 2);POINT (3 4)",
		"LINESTRING (0 0, 1 1);POINT (a b);MULTILINESTRING ((0 0, 1 0), (0 1, 1 1))",
		"MULTIPOINT ((1 1), 2 2);MULTILINESTRING ((0 0), (1 1, 2 2, 3 3));POLYGON EMPTY;POLYGON ((0 0, 0 0))",
		"POLYGON ((0 0, 9 0, 9 9, 0 0), (1 0.5, 2 0.5, 2 1.5));MULTILINESTRING ((0 0, 1 1));MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 9 5, 9 9, 5 5), (7 6, 8 6, 8 7)));" +
			"POLYGON ((0 0, 9 0, 9 9, 0 0), (3 1, 4 1, 4 2));MULTILINESTRING ((2 2, 3 3), (4 4, 5 5));MULTIPOLYGON (((2 2, 3 2, 3 3, 2 2)))",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkBatch(t, strings.Split(s, ";"))
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

// checkBatch requires ParseWKTAll(srcs) to equal ParseWKT on each source
// up to the first that fails, with that source's error, and appends to
// every slice of every returned geometry to check that none reaches
// another geometry's elements.
func checkBatch(t *testing.T, srcs []string) {
	t.Helper()
	gs, err := ParseWKTAll(srcs)
	want := make([]Geometry, len(gs))
	for i, s := range srcs {
		g, e := ParseWKT(s)
		if i == len(gs) {
			if err == nil || e == nil || e.Error() != err.Error() {
				t.Fatalf("source %d of %q: ParseWKTAll error %v, ParseWKT error %v", i, srcs, err, e)
			}
			break
		}
		if e != nil {
			t.Fatalf("source %d of %q: ParseWKTAll parsed it, ParseWKT: %v", i, srcs, e)
		}
		if !reflect.DeepEqual(gs[i], g) {
			t.Fatalf("source %d of %q: ParseWKTAll %#v, ParseWKT %#v", i, srcs, gs[i], g)
		}
		want[i] = g
	}
	if err == nil && len(gs) != len(srcs) {
		t.Fatalf("%d geometries for %d sources and no error", len(gs), len(srcs))
	}
	for i := range gs {
		appendToEach(gs[i])
		if !reflect.DeepEqual(gs, want) {
			t.Fatalf("appending to geometry %d of %q changed the batch", i, srcs)
		}
	}
}

// appendSink keeps appendToEach's appends from being optimised away.
var appendSink []any

// appendToEach appends one element to every slice g holds.
func appendToEach(g Geometry) {
	junk := Pt(-7, -7)
	ring := func(r Ring) { appendSink = append(appendSink, append(r.Coords, junk)) }
	poly := func(p Polygon) {
		ring(p.Shell)
		for _, h := range p.Holes {
			ring(h)
		}
		appendSink = append(appendSink, append(p.Holes, Ring{Coords: []Point{junk}}))
	}
	switch t := g.(type) {
	case MultiPoint:
		appendSink = append(appendSink, append(t.Points, junk))
	case LineString:
		appendSink = append(appendSink, append(t.Coords, junk))
	case MultiLineString:
		for _, l := range t.Lines {
			appendSink = append(appendSink, append(l.Coords, junk))
		}
		appendSink = append(appendSink, append(t.Lines, LineString{Coords: []Point{junk}}))
	case Polygon:
		poly(t)
	case MultiPolygon:
		for _, p := range t.Polygons {
			poly(p)
		}
		appendSink = append(appendSink, append(t.Polygons, Polygon{Shell: Ring{Coords: []Point{junk}}}))
	}
	appendSink = appendSink[:0]
}

// FuzzRelateRectangles builds rectangle pairs from arbitrary floats:
// construction must not panic, the centroid of a rectangle is interior,
// and rectangles whose envelopes lie more than Eps apart are at a
// positive distance.
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
		if Locate(a.Centroid(), a) != Interior {
			t.Fatal("centroid of a rectangle must be interior")
		}
		if !a.Envelope().Buffer(Eps).Intersects(b.Envelope()) && Distance(a, b) == 0 {
			t.Fatal("Distance is 0 between rectangles more than Eps apart")
		}
	})
}

// FuzzDistancePrepared is the oracle of the prepared distance decision:
// on arbitrary WKT pairs, Prepare(a).WithinDistance(Prepare(b), d) must
// equal Distance(a, b) <= d, with the operands either way round, at the
// pair's distance D, its float neighbours, 0, -0, Eps and its
// neighbours, -1, NaN, +Inf and the fuzzed d.
func FuzzDistancePrepared(f *testing.F) {
	seeds := []struct {
		a, b string
		d    float64
	}{
		{"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "POLYGON ((7 1, 9 1, 9 3, 7 3, 7 1))", 3},
		{"LINESTRING (0 0, 3 1, 6 0)", "POINT (3 1.5)", 0.25},
		{"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))", "LINESTRING (2 0, 3 4, 4 4.5)", 1},
		{"MULTIPOINT ((1 3), (4 -2))", "LINESTRING (0 0, 5 0)", 2},
		// Two one-leaf trees: the second pair touches within Eps (distance
		// 0) though its envelopes lie farther apart than the first pair's
		// distance, so an unguarded entry-level prune skips it.
		{"MULTILINESTRING ((0 0, 50 0), (100 0, 101 0))",
			"MULTILINESTRING ((0 0.00000000105, -10 10), (101.0000000009 0.0000000009, 102 0.0000000009))", 0},
		// A 10×10 district and a slum exactly 1 and exactly 5 units east
		// of it: the thresholds of the cli-scene extraction sit on the
		// distances.
		{"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", "POLYGON ((11 2, 13 2, 13 4, 11 4, 11 2))", 1},
		{"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", "POLYGON ((15 2, 17 2, 17 4, 15 4, 15 2))", 5},
		// Empty operands.
		{"POLYGON EMPTY", "POINT (1 1)", math.Inf(1)},
		{"LINESTRING EMPTY", "MULTIPOINT EMPTY", math.MaxFloat64},
		// A point within Eps of an edge: Distance reads 0.
		{"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", "POINT (10.0000000005 5)", 0},
	}
	for _, s := range seeds {
		f.Add(s.a, s.b, s.d)
	}
	f.Fuzz(func(t *testing.T, wa, wb string, d float64) {
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
		pa, pb := Prepare(a), Prepare(b)
		checkWithinDistance(t, a, b, pa, pb, d)
		checkWithinDistances(t, a, b, pa, pb, d)
	})
}

// FuzzEnvelopeWithinDistance is the oracle of the square-root-free
// envelope filter: on envelopes and a threshold built from arbitrary
// float64 bit patterns (NaN, infinities, signed zeros, subnormals and
// empty envelopes included), WithinDistance(o, d) must equal
// Distance(o) <= d, with the operands either way round.
func FuzzEnvelopeWithinDistance(f *testing.F) {
	add := func(e, o Envelope, d float64) {
		b := math.Float64bits
		f.Add(b(e.MinX), b(e.MinY), b(e.MaxX), b(e.MaxY), b(o.MinX), b(o.MinY), b(o.MaxX), b(o.MaxY), b(d))
	}
	unit := Envelope{0, 0, 1, 1}
	far := Envelope{4, 5, 6, 7} // gaps 3 and 4 from unit: Hypot exactly 5
	sub, maxf := math.SmallestNonzeroFloat64, math.MaxFloat64
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	add(unit, Envelope{3, 0.5, 4, 2}, 2)   // dy = 0: dx decides
	add(unit, Envelope{3, 0.5, 4, 2}, 1.5) // dy = 0, dx beyond d
	add(unit, Envelope{0.5, 3, 2, 4}, 2)   // dx = 0: dy decides
	add(unit, far, 5)                      // both gaps positive, Hypot at d
	add(unit, far, math.Nextafter(5, 0))   // both gaps positive, Hypot just beyond d
	add(unit, far, 4.5)                    // each gap within d, Hypot beyond it
	add(unit, unit, 0)
	add(unit, Envelope{1, 1, 2, 2}, negZero) // corner contact at d = -0
	add(unit, Envelope{1 + 1e-16, 0, 2, 1}, 0)
	add(Envelope{sub, sub, sub, sub}, Envelope{0, 0, 0, 0}, sub) // subnormal gaps
	add(Envelope{negZero, negZero, 0, 0}, Envelope{sub, 0, sub, 0}, 0)
	add(EmptyEnvelope(), unit, inf)
	add(EmptyEnvelope(), unit, maxf)
	add(unit, EmptyEnvelope(), nan)
	add(EmptyEnvelope(), EmptyEnvelope(), inf)
	add(Envelope{1, 0, 0, 1}, unit, inf) // empty by MinX > MaxX
	add(Envelope{-inf, -inf, inf, inf}, unit, 0)
	add(Envelope{-maxf, -maxf, -maxf, -maxf}, Envelope{maxf, maxf, maxf, maxf}, maxf) // gaps overflow to +Inf
	add(Envelope{-maxf, 0, -maxf, 0}, Envelope{maxf, 0, maxf, 0}, inf)
	add(Envelope{inf, inf, inf, inf}, unit, inf)
	add(Envelope{nan, 0, nan, 1}, Envelope{3, 0, 4, 1}, 1)
	add(unit, Envelope{3, nan, 4, nan}, 2)
	add(unit, far, nan)
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, b0, b1, b2, b3, dBits uint64) {
		v := math.Float64frombits
		e := Envelope{v(a0), v(a1), v(a2), v(a3)}
		o := Envelope{v(b0), v(b1), v(b2), v(b3)}
		d := v(dBits)
		if got, want := e.WithinDistance(o, d), e.Distance(o) <= d; got != want {
			t.Fatalf("%+v.WithinDistance(%+v, %v) = %v; Distance = %v", e, o, d, got, e.Distance(o))
		}
		if got, want := o.WithinDistance(e, d), o.Distance(e) <= d; got != want {
			t.Fatalf("%+v.WithinDistance(%+v, %v) = %v; Distance = %v", o, e, d, got, o.Distance(e))
		}
	})
}
