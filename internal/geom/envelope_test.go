package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmptyEnvelope(t *testing.T) {
	e := EmptyEnvelope()
	if !e.IsEmpty() {
		t.Fatal("EmptyEnvelope not empty")
	}
	if e.Width() != 0 || e.Height() != 0 {
		t.Error("empty envelope extents should be 0")
	}
	if e.Intersects(Envelope{0, 0, 1, 1}) {
		t.Error("empty envelope intersects something")
	}
	if e.Contains(Envelope{0, 0, 1, 1}) || (Envelope{0, 0, 1, 1}).Contains(e) {
		t.Error("containment with empty envelope")
	}
	if e.ContainsPoint(Pt(0, 0)) {
		t.Error("empty envelope contains a point")
	}
	got := e.Union(Envelope{0, 0, 1, 1})
	if got != (Envelope{0, 0, 1, 1}) {
		t.Errorf("union with empty = %+v", got)
	}
	got = (Envelope{0, 0, 1, 1}).Union(e)
	if got != (Envelope{0, 0, 1, 1}) {
		t.Errorf("union with empty (rhs) = %+v", got)
	}
}

func TestEnvelopeBasics(t *testing.T) {
	e := NewEnvelope(Pt(4, 1), Pt(0, 5))
	if e.MinX != 0 || e.MinY != 1 || e.MaxX != 4 || e.MaxY != 5 {
		t.Fatalf("NewEnvelope normalisation failed: %+v", e)
	}
	if e.Width() != 4 || e.Height() != 4 || e.Perimeter() != 8 {
		t.Error("extent accessors wrong")
	}
	if c := e.Center(); !c.Equal(Pt(2, 3)) {
		t.Errorf("Center = %v", c)
	}
	if !e.ContainsPoint(Pt(0, 1)) || !e.ContainsPoint(Pt(2, 3)) || e.ContainsPoint(Pt(5, 3)) {
		t.Error("ContainsPoint wrong")
	}
	b := e.Buffer(1)
	if b.MinX != -1 || b.MaxY != 6 {
		t.Errorf("Buffer = %+v", b)
	}
}

func TestEnvelopeIntersectsContains(t *testing.T) {
	a := Envelope{0, 0, 4, 4}
	cases := []struct {
		name                 string
		b                    Envelope
		intersects, contains bool
	}{
		{"identical", Envelope{0, 0, 4, 4}, true, true},
		{"inside", Envelope{1, 1, 2, 2}, true, true},
		{"overlapping", Envelope{3, 3, 6, 6}, true, false},
		{"touching edge", Envelope{4, 0, 6, 4}, true, false},
		{"touching corner", Envelope{4, 4, 6, 6}, true, false},
		{"disjoint", Envelope{5, 5, 6, 6}, false, false},
		{"disjoint in y only", Envelope{0, 5, 4, 6}, false, false},
	}
	for _, tc := range cases {
		if got := a.Intersects(tc.b); got != tc.intersects {
			t.Errorf("%s: Intersects = %v, want %v", tc.name, got, tc.intersects)
		}
		if got := a.Contains(tc.b); got != tc.contains {
			t.Errorf("%s: Contains = %v, want %v", tc.name, got, tc.contains)
		}
	}
}

func TestEnvelopeDistance(t *testing.T) {
	a := Envelope{0, 0, 1, 1}
	cases := []struct {
		b    Envelope
		want float64
	}{
		{Envelope{0.5, 0.5, 2, 2}, 0},  // overlapping
		{Envelope{1, 1, 2, 2}, 0},      // corner touch
		{Envelope{3, 0, 4, 1}, 2},      // purely horizontal gap
		{Envelope{0, 3, 1, 4}, 2},      // purely vertical gap
		{Envelope{4, 5, 6, 7}, 5},      // diagonal 3-4-5
		{Envelope{-4, -5, -3, -4}, 5},  // diagonal on the other side
		{EmptyEnvelope(), math.Inf(1)}, // empty operand
	}
	for _, tc := range cases {
		if got := a.Distance(tc.b); got != tc.want {
			t.Errorf("Distance(%+v) = %v, want %v", tc.b, got, tc.want)
		}
	}
}

func TestEnvelopeUnionProperties(t *testing.T) {
	// Property: the union contains both operands and is commutative.
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		e1 := NewEnvelope(Pt(clampF(ax), clampF(ay)), Pt(clampF(bx), clampF(by)))
		e2 := NewEnvelope(Pt(clampF(cx), clampF(cy)), Pt(clampF(dx), clampF(dy)))
		u := e1.Union(e2)
		return u.Contains(e1) && u.Contains(e2) && u == e2.Union(e1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnvelopeIntersectsSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		e1 := NewEnvelope(Pt(clampF(ax), clampF(ay)), Pt(clampF(bx), clampF(by)))
		e2 := NewEnvelope(Pt(clampF(cx), clampF(cy)), Pt(clampF(dx), clampF(dy)))
		return e1.Intersects(e2) == e2.Intersects(e1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampF maps an arbitrary float64 into a well-behaved finite range so
// quick-generated values do not produce NaN/Inf envelopes.
func clampF(f float64) float64 {
	if f != f { // NaN
		return 0
	}
	return math.Mod(f, 1e6)
}

// TestEnvelopeSlack pins the distance filters' slack: Eps plus 1e-12 of
// the largest coordinate magnitude, +Inf when empty, and enough to
// bridge the gap between the envelopes of two lines that Distance
// puts at 0 because they touch within Eps.
func TestEnvelopeSlack(t *testing.T) {
	if s := EmptyEnvelope().Slack(); !math.IsInf(s, 1) {
		t.Errorf("empty Slack = %g, want +Inf", s)
	}
	for _, c := range []struct {
		e    Envelope
		want float64
	}{
		{Envelope{0, 0, 0, 0}, Eps},
		{Envelope{-1, 0, 1, 0.5}, Eps + 1e-12},
		{Envelope{-5e6, 2, 1, 3}, Eps + 5e-6},
		{Envelope{0, 0, 1, 4e7}, Eps + 4e-5},
	} {
		if s := c.e.Slack(); math.Abs(s-c.want) > 1e-12*c.want {
			t.Errorf("%+v.Slack() = %g, want %g", c.e, s, c.want)
		}
	}
	a := Line(Pt(100, 0), Pt(101, 0))
	b := Line(Pt(101.0000000009, 0.0000000015), Pt(102, 0.0000000015))
	if d := Distance(a, b); d != 0 {
		t.Fatalf("Distance = %g, want 0 (the lines touch within Eps)", d)
	}
	ea, eb := a.Envelope(), b.Envelope()
	if d := ea.Distance(eb); d <= Eps {
		t.Fatalf("envelope distance = %g, want more than Eps", d)
	}
	if d := ea.Buffer(ea.Slack()).Distance(eb.Buffer(eb.Slack())); d != 0 {
		t.Errorf("slack-grown envelope distance = %g, want 0", d)
	}
}
