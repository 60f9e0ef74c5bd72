package geom

import (
	"math"
	"math/rand"
	"testing"
)

// minMaxInputs are the float64 values on which the builtin min and max
// and math.Min and math.Max could part: both zeros, NaN, both
// infinities, subnormals, the largest finite values, and two ordinary
// values.
var minMaxInputs = func() []float64 {
	negZero, sub := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	return []float64{
		0, negZero, math.NaN(), math.Inf(1), math.Inf(-1),
		sub, -sub, 4 * sub, math.MaxFloat64, -math.MaxFloat64, 1, -2.5,
	}
}()

// sameFloat reports whether a and b have the same bits, counting any
// two NaNs as equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func sameEnvelope(a, b Envelope) bool {
	return sameFloat(a.MinX, b.MinX) && sameFloat(a.MinY, b.MinY) && sameFloat(a.MaxX, b.MaxX) && sameFloat(a.MaxY, b.MaxY)
}

func samePoint(a, b Point) bool { return sameFloat(a.X, b.X) && sameFloat(a.Y, b.Y) }

// TestMinMaxMatchMath holds minf and maxf, and every envelope and
// segment computation that takes a minimum or a maximum, to the
// math.Min/math.Max results they replace, bit for bit (any two NaNs
// equal), on every pair of minMaxInputs and on random combinations of
// them. The builtins alone would differ where a NaN meets the infinity
// the math functions seek: math.Max(NaN, +Inf) is +Inf.
func TestMinMaxMatchMath(t *testing.T) {
	vals := minMaxInputs
	for _, x := range vals {
		for _, y := range vals {
			if got, want := minf(x, y), math.Min(x, y); !sameFloat(got, want) {
				t.Fatalf("minf(%v, %v) = %v, math.Min %v", x, y, got, want)
			}
			if got, want := maxf(x, y), math.Max(x, y); !sameFloat(got, want) {
				t.Fatalf("maxf(%v, %v) = %v, math.Max %v", x, y, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	pick := func() float64 { return vals[rng.Intn(len(vals))] }
	env := func() Envelope { return Envelope{pick(), pick(), pick(), pick()} }
	for i := 0; i < 50000; i++ {
		a, b := Pt(pick(), pick()), Pt(pick(), pick())
		want := Envelope{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Max(a.X, b.X), math.Max(a.Y, b.Y)}
		if got := NewEnvelope(a, b); !sameEnvelope(got, want) {
			t.Fatalf("NewEnvelope(%v, %v) = %+v, want %+v", a, b, got, want)
		}

		e, o := env(), env()
		want = Envelope{math.Min(e.MinX, a.X), math.Min(e.MinY, a.Y), math.Max(e.MaxX, a.X), math.Max(e.MaxY, a.Y)}
		if got := e.ExpandToPoint(a); !sameEnvelope(got, want) {
			t.Fatalf("%+v.ExpandToPoint(%v) = %+v, want %+v", e, a, got, want)
		}

		switch {
		case e.IsEmpty():
			want = o
		case o.IsEmpty():
			want = e
		default:
			want = Envelope{math.Min(e.MinX, o.MinX), math.Min(e.MinY, o.MinY), math.Max(e.MaxX, o.MaxX), math.Max(e.MaxY, o.MaxY)}
		}
		if got := e.Union(o); !sameEnvelope(got, want) {
			t.Fatalf("%+v.Union(%+v) = %+v, want %+v", e, o, got, want)
		}

		slack := Eps + 1e-12*math.Max(math.Max(math.Abs(e.MinX), math.Abs(e.MaxX)), math.Max(math.Abs(e.MinY), math.Abs(e.MaxY)))
		if got := e.Slack(); !sameFloat(got, slack) {
			t.Fatalf("%+v.Slack() = %v, want %v", e, got, slack)
		}

		s := Segment{a, b}
		p := Pt(pick(), pick())
		if got, want := paramOn(s, p), paramOnMath(s, p); !sameFloat(got, want) {
			t.Fatalf("paramOn(%v, %v) = %v, want %v", s, p, got, want)
		}

		o2 := Segment{Pt(pick(), pick()), Pt(pick(), pick())}
		gk, g0, g1 := s.collinearOverlap(o2)
		wk, w0, w1 := collinearOverlapMath(s, o2)
		if gk != wk || !samePoint(g0, w0) || !samePoint(g1, w1) {
			t.Fatalf("%v.collinearOverlap(%v) = %v %v %v, want %v %v %v", s, o2, gk, g0, g1, wk, w0, w1)
		}
	}
}

// paramOnMath is paramOn with its clamp written with math.Min and
// math.Max.
func paramOnMath(s Segment, p Point) float64 {
	d := s.B.Sub(s.A)
	den := d.Dot(d)
	if den == 0 {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / den
	return math.Max(0, math.Min(1, t))
}

// collinearOverlapMath is Segment.collinearOverlap with its range
// written with math.Max and math.Min.
func collinearOverlapMath(s, o Segment) (IntersectionKind, Point, Point) {
	dx := math.Abs(s.B.X - s.A.X)
	dy := math.Abs(s.B.Y - s.A.Y)
	coord := func(p Point) float64 {
		if dx >= dy {
			return p.X
		}
		return p.Y
	}
	sLo, sHi := coord(s.A), coord(s.B)
	if sLo > sHi {
		sLo, sHi = sHi, sLo
	}
	oLo, oHi := coord(o.A), coord(o.B)
	pLo, pHi := o.A, o.B
	if oLo > oHi {
		oLo, oHi = oHi, oLo
		pLo, pHi = pHi, pLo
	}
	lo := math.Max(sLo, oLo)
	hi := math.Min(sHi, oHi)
	if lo > hi+Eps {
		return IntersectionNone, Point{}, Point{}
	}
	pick := func(v float64) Point {
		for _, c := range []Point{s.A, s.B, pLo, pHi} {
			if math.Abs(coord(c)-v) <= Eps {
				return c
			}
		}
		return s.A
	}
	a, b := pick(lo), pick(hi)
	if a.DistanceTo(b) <= Eps {
		return IntersectionPoint, a, Point{}
	}
	return IntersectionOverlap, a, b
}
