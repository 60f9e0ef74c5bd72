// Package qsr defines the qualitative spatial relation vocabulary the
// paper mines over — topological relations (from the 9-intersection model),
// qualitative distance relations (veryClose / close / far, cut by
// thresholds), and directional (order) relations — together with the
// Predicate type that couples a relation with a relevant feature type
// ("contains_slum", "closeTo_policeCenter").
//
// The topological classifier lives here too: de9im computes the DE-9IM
// matrix of two geometries and Topological reads the one Egenhofer
// relation off it.
//
// Two predicates are "meaningless together" for Apriori-KC+ exactly when
// their feature types coincide, regardless of the relations involved.
// SameFeatureType states that rule over predicates; production KC+
// applies it to interned items with itemset.Dictionary.SameFeatureType.
package qsr

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/de9im"
	"repro/internal/geom"
)

// Relation is a qualitative spatial relation from any family.
type Relation int

// Topological relations: the canonical, mutually exclusive Egenhofer set
// that Topological classifies.
const (
	Equals Relation = iota
	Disjoint
	Touches
	Contains
	Within
	Covers
	CoveredBy
	Crosses
	Overlaps
	// Distance relations.
	VeryClose
	CloseTo
	FarFrom
	// Directional relations (of the reference object's centroid relative
	// to the related object: "slum northOf district" is rendered from the
	// district's point of view as northOf_slum meaning the slum lies to
	// the north).
	NorthOf
	SouthOf
	EastOf
	WestOf
)

// String returns the predicate-friendly name ("contains", "closeTo",
// "northOf", ...), matching the paper's rendering.
func (r Relation) String() string {
	switch r {
	case Equals:
		return "equals"
	case Disjoint:
		return "disjoint"
	case Touches:
		return "touches"
	case Contains:
		return "contains"
	case Within:
		return "within"
	case Covers:
		return "covers"
	case CoveredBy:
		return "coveredBy"
	case Crosses:
		return "crosses"
	case Overlaps:
		return "overlaps"
	case VeryClose:
		return "veryCloseTo"
	case CloseTo:
		return "closeTo"
	case FarFrom:
		return "farFrom"
	case NorthOf:
		return "northOf"
	case SouthOf:
		return "southOf"
	case EastOf:
		return "eastOf"
	case WestOf:
		return "westOf"
	}
	return fmt.Sprintf("qsr.Relation(%d)", int(r))
}

// ParseRelation inverts Relation.String.
func ParseRelation(s string) (Relation, error) {
	for r := Equals; r <= WestOf; r++ {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("qsr: unknown relation %q", s)
}

// Topological classifies the canonical Egenhofer relation between two
// geometries. The boolean is false for empty operands.
func Topological(a, b geom.Geometry) (Relation, bool) {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return 0, false
	}
	return classify(de9im.Relate(a, b), a.Dimension(), b.Dimension()), true
}

// TopologicalPrepared is Topological over prepared geometries, computing
// the matrix through de9im.RelatePrepared's cached soups, sample points,
// and edge trees. The result is identical to Topological on the wrapped
// geometries.
func TopologicalPrepared(a, b *geom.Prepared) (Relation, bool) {
	if a.IsEmpty() || b.IsEmpty() {
		return 0, false
	}
	return classify(de9im.RelatePrepared(a, b), a.Geometry().Dimension(), b.Geometry().Dimension()), true
}

// classify returns the single canonical Egenhofer relation of a matrix
// between non-empty operands of dimensions dimA and dimB. The relations
// are mutually exclusive and exhaustive: exactly one of equals, disjoint,
// touches, contains, covers, within, coveredBy, crosses, overlaps holds.
//
// The decision rules follow the 9-intersection reading used by the paper:
// contains/within are strict (no boundary contact), covers/coveredBy have
// boundary contact, touches has meeting boundaries but disjoint interiors,
// crosses is the mixed-dimension (or 0-dimensional line/line) interior
// crossing, and overlaps is the same-dimension partial overlap.
func classify(m de9im.Matrix, dimA, dimB int) Relation {
	if m.IsDisjoint() {
		return Disjoint
	}
	if m.IsEquals() {
		return Equals
	}
	const in, bd, ex = de9im.Int, de9im.Bnd, de9im.Ext
	if m[in][in] == de9im.F {
		return Touches
	}
	// Interiors intersect. Containment of b in a?
	if m[ex][in] == de9im.F && m[ex][bd] == de9im.F {
		// b inside closure(a); strict when b avoids a's boundary.
		if m[bd][in] == de9im.F && m[bd][bd] == de9im.F {
			return Contains
		}
		return Covers
	}
	if m[in][ex] == de9im.F && m[bd][ex] == de9im.F {
		if m[in][bd] == de9im.F && m[bd][bd] == de9im.F {
			return Within
		}
		return CoveredBy
	}
	// Partial intersection: crosses when the interior intersection has
	// lower dimension than the higher-dimensional operand, overlaps
	// otherwise.
	maxDim := dimA
	if dimB > maxDim {
		maxDim = dimB
	}
	if int(m[in][in]) < maxDim {
		return Crosses
	}
	return Overlaps
}

// DistanceThresholds cuts continuous distance into the qualitative
// vocabulary: d <= VeryCloseMax is veryCloseTo, d <= CloseMax is closeTo,
// anything further is farFrom.
type DistanceThresholds struct {
	VeryCloseMax float64
	CloseMax     float64
}

// DefaultThresholds returns thresholds scaled to a reference extent (e.g.
// the typical district diameter): very close within 10%, close within 50%.
func DefaultThresholds(referenceExtent float64) DistanceThresholds {
	return DistanceThresholds{
		VeryCloseMax: 0.1 * referenceExtent,
		CloseMax:     0.5 * referenceExtent,
	}
}

// Validate reports thresholds that cannot cut distances consistently:
// both must be finite and 0 <= VeryCloseMax <= CloseMax. Extraction
// prunes candidates by CloseMax and short-cuts farFrom by envelope
// distance, which agrees with Classify only under these conditions.
func (t DistanceThresholds) Validate() error {
	if math.IsNaN(t.VeryCloseMax) || math.IsInf(t.VeryCloseMax, 0) || math.IsNaN(t.CloseMax) || math.IsInf(t.CloseMax, 0) {
		return fmt.Errorf("qsr: distance thresholds must be finite, got veryCloseMax %v, closeMax %v", t.VeryCloseMax, t.CloseMax)
	}
	if !(0 <= t.VeryCloseMax && t.VeryCloseMax <= t.CloseMax) {
		return fmt.Errorf("qsr: distance thresholds need 0 <= veryCloseMax <= closeMax, got veryCloseMax %v, closeMax %v", t.VeryCloseMax, t.CloseMax)
	}
	return nil
}

// Classify maps a distance to its qualitative relation.
func (t DistanceThresholds) Classify(d float64) Relation {
	switch {
	case d <= t.VeryCloseMax:
		return VeryClose
	case d <= t.CloseMax:
		return CloseTo
	default:
		return FarFrom
	}
}

// DistanceRelation classifies the qualitative distance between two
// geometries under the thresholds.
func DistanceRelation(a, b geom.Geometry, t DistanceThresholds) Relation {
	return t.Classify(geom.Distance(a, b))
}

// DistanceRelationPrepared is DistanceRelation over prepared geometries.
// It decides instead of measuring: geom.Prepared.WithinDistances answers
// Distance <= d exactly at VeryCloseMax and at CloseMax, running the
// containment short-cuts once for both, so it gives Classify's relation
// without computing the minimum distance, and the classification cannot
// differ.
func DistanceRelationPrepared(a, b *geom.Prepared, t DistanceThresholds) Relation {
	veryClose, close := a.WithinDistances(b, t.VeryCloseMax, t.CloseMax)
	switch {
	case veryClose:
		return VeryClose
	case close:
		return CloseTo
	default:
		return FarFrom
	}
}

// Directional returns the dominant cardinal direction of b relative to a,
// comparing centroids: b northOf a when the vertical offset dominates and
// is positive, etc. The boolean is false when the centroids coincide (no
// meaningful direction).
func Directional(a, b geom.Geometry) (Relation, bool) {
	return directionalFrom(geom.Centroid(a), geom.Centroid(b))
}

// DirectionalPrepared is Directional over prepared geometries, reusing
// their cached centroids.
func DirectionalPrepared(a, b *geom.Prepared) (Relation, bool) {
	return directionalFrom(a.Centroid(), b.Centroid())
}

// directionalFrom compares two centroids under the dominant-axis rule.
func directionalFrom(ca, cb geom.Point) (Relation, bool) {
	dx, dy := cb.X-ca.X, cb.Y-ca.Y
	if dx == 0 && dy == 0 {
		return 0, false
	}
	if abs(dy) >= abs(dx) {
		if dy > 0 {
			return NorthOf, true
		}
		return SouthOf, true
	}
	if dx > 0 {
		return EastOf, true
	}
	return WestOf, true
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// Predicate is a qualitative spatial predicate at feature-type
// granularity: a relation paired with the relevant feature type it holds
// against, e.g. {Contains, "slum"} rendered as "contains_slum". This is
// the paper's "item" for spatial entries of a transaction.
type Predicate struct {
	Relation    Relation
	FeatureType string
}

// String renders the paper's predicate notation.
func (p Predicate) String() string {
	return p.Relation.String() + "_" + p.FeatureType
}

// ParsePredicate inverts Predicate.String. The feature type may itself
// contain underscores; the split happens at the first underscore.
func ParsePredicate(s string) (Predicate, error) {
	i := strings.IndexByte(s, '_')
	if i < 0 {
		return Predicate{}, fmt.Errorf("qsr: predicate %q has no relation/feature separator", s)
	}
	rel, err := ParseRelation(s[:i])
	if err != nil {
		return Predicate{}, err
	}
	if s[i+1:] == "" {
		return Predicate{}, fmt.Errorf("qsr: predicate %q has empty feature type", s)
	}
	return Predicate{Relation: rel, FeatureType: s[i+1:]}, nil
}

// SameFeatureType reports whether two predicates refer to the same
// relevant feature type — the exact condition under which Apriori-KC+
// prunes their pair from C2. The relations themselves are irrelevant.
func SameFeatureType(a, b Predicate) bool {
	return a.FeatureType == b.FeatureType
}
