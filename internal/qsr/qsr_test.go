package qsr

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestRelationStringsAndParse(t *testing.T) {
	names := map[string]bool{}
	for r := Equals; r <= WestOf; r++ {
		names[r.String()] = true
		parsed, err := ParseRelation(r.String())
		if err != nil {
			t.Errorf("ParseRelation(%q): %v", r.String(), err)
			continue
		}
		if parsed != r {
			t.Errorf("round trip %v -> %v", r, parsed)
		}
	}
	if len(names) != 16 {
		t.Fatalf("relation vocabulary has %d distinct names, want 16", len(names))
	}
	if _, err := ParseRelation("bogus"); err == nil {
		t.Error("ParseRelation should reject unknown names")
	}
}

func TestTopologicalClassification(t *testing.T) {
	district := geom.Rect(0, 0, 10, 10)
	cases := []struct {
		name string
		b    geom.Geometry
		want Relation
	}{
		{"contains", geom.Rect(2, 2, 4, 4), Contains},
		{"covers", geom.Rect(0, 0, 4, 4), Covers},
		{"touches", geom.Rect(10, 0, 14, 4), Touches},
		{"overlaps", geom.Rect(8, 8, 14, 14), Overlaps},
		{"disjoint", geom.Rect(20, 20, 22, 22), Disjoint},
		{"equals", geom.Rect(0, 0, 10, 10), Equals},
	}
	for _, tc := range cases {
		got, ok := Topological(district, tc.b)
		if !ok {
			t.Errorf("%s: no relation", tc.name)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	if _, ok := Topological(geom.MultiPoint{}, district); ok {
		t.Error("empty operand should yield no relation")
	}
}

func TestDistanceThresholds(t *testing.T) {
	th := DistanceThresholds{VeryCloseMax: 1, CloseMax: 5}
	cases := []struct {
		d    float64
		want Relation
	}{
		{0, VeryClose},
		{1, VeryClose},
		{1.01, CloseTo},
		{5, CloseTo},
		{5.01, FarFrom},
		{1e9, FarFrom},
	}
	for _, tc := range cases {
		if got := th.Classify(tc.d); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

func TestDefaultThresholds(t *testing.T) {
	th := DefaultThresholds(100)
	if th.VeryCloseMax != 10 || th.CloseMax != 50 {
		t.Errorf("DefaultThresholds = %+v", th)
	}
}

func TestDistanceRelation(t *testing.T) {
	th := DistanceThresholds{VeryCloseMax: 1, CloseMax: 5}
	a := geom.Rect(0, 0, 2, 2)
	// Contained police center: distance 0, very close — the paper's
	// "districts Cristal and Cavalhada will be very close, since they
	// contain police centers".
	if got := DistanceRelation(a, geom.Pt(1, 1), th); got != VeryClose {
		t.Errorf("contained point = %v, want veryCloseTo", got)
	}
	if got := DistanceRelation(a, geom.Pt(6, 1), th); got != CloseTo {
		t.Errorf("4 away = %v, want closeTo", got)
	}
	if got := DistanceRelation(a, geom.Pt(50, 1), th); got != FarFrom {
		t.Errorf("48 away = %v, want farFrom", got)
	}
}

func TestDirectional(t *testing.T) {
	center := geom.Rect(0, 0, 2, 2) // centroid (1,1)
	cases := []struct {
		name string
		b    geom.Geometry
		want Relation
	}{
		{"north", geom.Pt(1, 9), NorthOf},
		{"south", geom.Pt(1, -9), SouthOf},
		{"east", geom.Pt(9, 1), EastOf},
		{"west", geom.Pt(-9, 1), WestOf},
		{"northeast leans north", geom.Pt(3, 9), NorthOf},
		{"northeast leans east", geom.Pt(9, 3), EastOf},
	}
	for _, tc := range cases {
		got, ok := Directional(center, tc.b)
		if !ok || got != tc.want {
			t.Errorf("%s: got %v ok=%v, want %v", tc.name, got, ok, tc.want)
		}
	}
	if _, ok := Directional(center, geom.Pt(1, 1)); ok {
		t.Error("coincident centroids should yield no direction")
	}
}

func TestPredicateStringAndParse(t *testing.T) {
	p := Predicate{Relation: Contains, FeatureType: "slum"}
	if p.String() != "contains_slum" {
		t.Errorf("String = %q", p.String())
	}
	parsed, err := ParsePredicate("contains_slum")
	if err != nil || parsed != p {
		t.Errorf("ParsePredicate = %+v, %v", parsed, err)
	}
	// Feature types with underscores split at the first separator.
	parsed, err = ParsePredicate("closeTo_police_center")
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Relation != CloseTo || parsed.FeatureType != "police_center" {
		t.Errorf("underscore feature type = %+v", parsed)
	}
	for _, bad := range []string{"nounderscore", "bogus_slum", "contains_"} {
		if _, err := ParsePredicate(bad); err == nil {
			t.Errorf("ParsePredicate(%q) should fail", bad)
		}
	}
}

func TestSameFeatureType(t *testing.T) {
	a := Predicate{Contains, "slum"}
	b := Predicate{Touches, "slum"}
	c := Predicate{Touches, "school"}
	if !SameFeatureType(a, b) {
		t.Error("contains_slum and touches_slum share a feature type")
	}
	if SameFeatureType(a, c) {
		t.Error("slum and school are distinct feature types")
	}
	// Identical predicates trivially share the type.
	if !SameFeatureType(a, a) {
		t.Error("self comparison")
	}
}

func TestDistanceThresholdsValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, th := range []DistanceThresholds{
		DefaultThresholds(10), {1, 5}, {0, 15}, {1, 6}, {0.5, 1}, {0, 0}, {1, 8}, {1, 12}, {10, 50}, {3, 3},
	} {
		if err := th.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", th, err)
		}
	}
	for _, th := range []DistanceThresholds{
		{1, -1}, {5, 2}, {-1, 5}, {-1, -1}, {nan, 5}, {1, nan}, {0, inf}, {-inf, 0}, {inf, inf},
	} {
		if err := th.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want an error", th)
		}
	}
}
