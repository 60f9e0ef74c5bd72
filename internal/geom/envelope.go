package geom

import "math"

// Envelope is an axis-aligned bounding box. An envelope with MinX > MaxX is
// empty (see EmptyEnvelope).
type Envelope struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyEnvelope returns the canonical empty envelope, the identity for
// Union.
func EmptyEnvelope() Envelope {
	return Envelope{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// NewEnvelope constructs an envelope from two corner points given in any
// order.
func NewEnvelope(a, b Point) Envelope {
	return Envelope{
		MinX: minf(a.X, b.X), MinY: minf(a.Y, b.Y),
		MaxX: maxf(a.X, b.X), MaxY: maxf(a.Y, b.Y),
	}
}

// IsEmpty reports whether the envelope contains no points.
func (e Envelope) IsEmpty() bool { return e.MinX > e.MaxX || e.MinY > e.MaxY }

// Width returns the X extent, or 0 when empty.
func (e Envelope) Width() float64 {
	if e.IsEmpty() {
		return 0
	}
	return e.MaxX - e.MinX
}

// Height returns the Y extent, or 0 when empty.
func (e Envelope) Height() float64 {
	if e.IsEmpty() {
		return 0
	}
	return e.MaxY - e.MinY
}

// Perimeter returns half the boundary length (width + height), the usual
// R-tree enlargement metric.
func (e Envelope) Perimeter() float64 { return e.Width() + e.Height() }

// Center returns the midpoint of the envelope.
func (e Envelope) Center() Point {
	return Point{(e.MinX + e.MaxX) / 2, (e.MinY + e.MaxY) / 2}
}

// ExpandToPoint returns the smallest envelope covering both e and p.
func (e Envelope) ExpandToPoint(p Point) Envelope {
	return Envelope{
		MinX: minf(e.MinX, p.X), MinY: minf(e.MinY, p.Y),
		MaxX: maxf(e.MaxX, p.X), MaxY: maxf(e.MaxY, p.Y),
	}
}

// Union returns the smallest envelope covering both operands.
func (e Envelope) Union(o Envelope) Envelope {
	if e.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return e
	}
	return Envelope{
		MinX: minf(e.MinX, o.MinX), MinY: minf(e.MinY, o.MinY),
		MaxX: maxf(e.MaxX, o.MaxX), MaxY: maxf(e.MaxY, o.MaxY),
	}
}

// Intersects reports whether the two envelopes share at least one point
// (boundary contact counts).
func (e Envelope) Intersects(o Envelope) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return false
	}
	return e.MinX <= o.MaxX && o.MinX <= e.MaxX &&
		e.MinY <= o.MaxY && o.MinY <= e.MaxY
}

// Contains reports whether o lies entirely inside e (boundary contact
// allowed).
func (e Envelope) Contains(o Envelope) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return false
	}
	return e.MinX <= o.MinX && o.MaxX <= e.MaxX &&
		e.MinY <= o.MinY && o.MaxY <= e.MaxY
}

// ContainsPoint reports whether p lies inside or on the boundary of e.
func (e Envelope) ContainsPoint(p Point) bool {
	return !e.IsEmpty() &&
		e.MinX <= p.X && p.X <= e.MaxX &&
		e.MinY <= p.Y && p.Y <= e.MaxY
}

// Buffer returns the envelope grown by d on every side. A negative d
// shrinks the envelope and may produce an empty one.
func (e Envelope) Buffer(d float64) Envelope {
	if e.IsEmpty() {
		return e
	}
	return Envelope{e.MinX - d, e.MinY - d, e.MaxX + d, e.MaxY + d}
}

// Slack is how far a distance filter grows e before comparing it with
// another envelope: Eps plus 1e-12 of e's largest coordinate magnitude
// (+Inf when e is empty). Distance puts two segments at 0 when their
// Eps-grown envelopes meet (Segment.Intersect), so the envelopes of
// touching geometries can lie up to 2·Eps apart on each axis; the
// relative part covers the rounding by which ClosestPoint and Hypot may
// measure a pair a few ulps below its envelopes' distance. Two
// geometries whose envelopes, each grown by its own slack, lie farther
// apart than d are therefore farther apart than d.
func (e Envelope) Slack() float64 {
	return Eps + 1e-12*maxf(maxf(math.Abs(e.MinX), math.Abs(e.MaxX)), maxf(math.Abs(e.MinY), math.Abs(e.MaxY)))
}

// AxisGaps returns how far apart the two envelopes lie along X and along
// Y: 0 on an axis where their extents meet or overlap, and +Inf on both
// when either envelope is empty. Neither gap is ever NaN or negative.
func (e Envelope) AxisGaps(o Envelope) (dx, dy float64) {
	if e.IsEmpty() || o.IsEmpty() {
		return math.Inf(1), math.Inf(1)
	}
	switch {
	case o.MinX > e.MaxX:
		dx = o.MinX - e.MaxX
	case e.MinX > o.MaxX:
		dx = e.MinX - o.MaxX
	}
	switch {
	case o.MinY > e.MaxY:
		dy = o.MinY - e.MaxY
	case e.MinY > o.MaxY:
		dy = e.MinY - o.MaxY
	}
	return dx, dy
}

// Distance returns the minimal distance between the two envelopes, 0 when
// they intersect and +Inf when either is empty.
func (e Envelope) Distance(o Envelope) float64 {
	return math.Hypot(e.AxisGaps(o))
}

// WithinDistance reports whether Distance(o) <= d, for every input,
// NaN and infinities included. Hypot never measures below its larger
// argument and Hypot(x, 0) is x, so when one axis gap exceeds d, or one
// gap is 0, the other gap decides the answer without a square root;
// only two positive gaps both within d take the Hypot.
func (e Envelope) WithinDistance(o Envelope, d float64) bool {
	dx, dy := e.AxisGaps(o)
	switch {
	case dx > d || dy > d:
		return false
	case dx == 0:
		return dy <= d
	case dy == 0:
		return dx <= d
	}
	return math.Hypot(dx, dy) <= d
}

// minf is math.Min(x, y) and maxf math.Max(x, y), bit for bit up to the
// payload of a NaN, in a form the compiler inlines (math.Min and
// math.Max are assembly routines it cannot). The builtins min and max
// agree with them on every input, signed zeros and infinities included,
// except one: the math functions let an infinity in the direction they
// seek win over a NaN, where the builtins answer NaN. Only then, when
// the builtin's answer is NaN, is the infinity looked for.
func minf(x, y float64) float64 {
	if m := min(x, y); m == m || !(x < -math.MaxFloat64 || y < -math.MaxFloat64) {
		return m
	}
	return math.Inf(-1)
}

func maxf(x, y float64) float64 {
	if m := max(x, y); m == m || !(x > math.MaxFloat64 || y > math.MaxFloat64) {
		return m
	}
	return math.Inf(1)
}
