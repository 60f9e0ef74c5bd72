// Package qsr defines the qualitative spatial relation vocabulary the
// paper mines over — topological relations (from the 9-intersection model),
// qualitative distance relations (veryClose / close / far, cut by
// thresholds), and directional (order) relations — together with the
// Predicate type that couples a relation with a relevant feature type
// ("contains_slum", "closeTo_policeCenter").
//
// The same-feature-type reasoning at the heart of Apriori-KC+ lives here:
// two predicates are "meaningless together" exactly when their feature
// types coincide, regardless of the relations involved.
package qsr

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/de9im"
	"repro/internal/geom"
)

// Family groups qualitative relations by kind, following the paper's
// "topological, distance, or order" taxonomy (citing Güting).
type Family int

// Relation families.
const (
	FamilyTopological Family = iota
	FamilyDistance
	FamilyDirectional
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyTopological:
		return "topological"
	case FamilyDistance:
		return "distance"
	case FamilyDirectional:
		return "directional"
	}
	return fmt.Sprintf("qsr.Family(%d)", int(f))
}

// Relation is a qualitative spatial relation from any family.
type Relation int

// Topological relations mirror de9im's canonical Egenhofer set.
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

// Family reports which family the relation belongs to.
func (r Relation) Family() Family {
	switch r {
	case VeryClose, CloseTo, FarFrom:
		return FamilyDistance
	case NorthOf, SouthOf, EastOf, WestOf:
		return FamilyDirectional
	default:
		return FamilyTopological
	}
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

// TopologicalRelations lists the nine named 9-intersection relations in
// the order the paper enumerates them.
func TopologicalRelations() []Relation {
	return []Relation{Contains, Within, Touches, Crosses, Covers, CoveredBy, Overlaps, Equals, Disjoint}
}

// DistanceRelations lists the qualitative distance vocabulary.
func DistanceRelations() []Relation { return []Relation{VeryClose, CloseTo, FarFrom} }

// DirectionalRelations lists the order vocabulary.
func DirectionalRelations() []Relation { return []Relation{NorthOf, SouthOf, EastOf, WestOf} }

// fromDE9IM maps the de9im canonical relation onto the qsr vocabulary.
func fromDE9IM(r de9im.Relation) (Relation, bool) {
	switch r {
	case de9im.Equals:
		return Equals, true
	case de9im.Disjoint:
		return Disjoint, true
	case de9im.Touches:
		return Touches, true
	case de9im.Contains:
		return Contains, true
	case de9im.Within:
		return Within, true
	case de9im.Covers:
		return Covers, true
	case de9im.CoveredBy:
		return CoveredBy, true
	case de9im.Crosses:
		return Crosses, true
	case de9im.Overlaps:
		return Overlaps, true
	}
	return 0, false
}

// Topological classifies the canonical Egenhofer relation between two
// geometries. The boolean is false for empty operands.
func Topological(a, b geom.Geometry) (Relation, bool) {
	return fromDE9IM(de9im.Classify(a, b))
}

// TopologicalPrepared is Topological over prepared geometries, reusing
// their cached soups, sample points, and edge trees. The result is
// identical to Topological on the wrapped geometries.
func TopologicalPrepared(a, b *geom.Prepared) (Relation, bool) {
	return fromDE9IM(de9im.ClassifyPrepared(a, b))
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
