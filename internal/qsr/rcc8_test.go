package qsr

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func allRCC8() []RCC8 {
	return []RCC8{DC, EC, PO, EQ, TPP, NTPP, TPPi, NTPPi}
}

func TestRCC8Strings(t *testing.T) {
	want := map[RCC8]string{
		DC: "DC", EC: "EC", PO: "PO", EQ: "EQ",
		TPP: "TPP", NTPP: "NTPP", TPPi: "TPPi", NTPPi: "NTPPi",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%v.String() = %q", r, r.String())
		}
	}
	if RCC8(99).String() != "qsr.RCC8(99)" {
		t.Error("unknown RCC8 string")
	}
}

func TestRCC8ConverseInvolution(t *testing.T) {
	for _, r := range allRCC8() {
		if r.Converse().Converse() != r {
			t.Errorf("converse not involutive for %v", r)
		}
	}
	if TPP.Converse() != TPPi || NTPP.Converse() != NTPPi {
		t.Error("proper-part converses wrong")
	}
	for _, sym := range []RCC8{DC, EC, PO, EQ} {
		if sym.Converse() != sym {
			t.Errorf("%v should be symmetric", sym)
		}
	}
}

func TestRCC8ConversionRoundTrip(t *testing.T) {
	// ToRCC8 maps the eight region relations one to one onto RCC8.
	from := map[RCC8]Relation{}
	for rel := Equals; rel <= Overlaps; rel++ {
		r, ok := ToRCC8(rel)
		if !ok {
			continue
		}
		if prev, seen := from[r]; seen {
			t.Errorf("%v and %v both map to %v", prev, rel, r)
		}
		from[r] = rel
	}
	if len(from) != len(allRCC8()) {
		t.Errorf("region relations reach %d of the %d RCC8 relations", len(from), len(allRCC8()))
	}
	for _, noRCC8 := range []Relation{Crosses, CloseTo, NorthOf} {
		if _, ok := ToRCC8(noRCC8); ok {
			t.Errorf("%v should have no RCC8 counterpart", noRCC8)
		}
	}
}

func TestRCC8SetOps(t *testing.T) {
	s := NewRCC8Set(DC, EC)
	if !s.Has(DC) || !s.Has(EC) || s.Has(PO) {
		t.Error("membership wrong")
	}
	if s.Size() != 2 {
		t.Errorf("Size = %d", s.Size())
	}
	if s.String() != "{DC, EC}" {
		t.Errorf("String = %q", s.String())
	}
	if Universal.Size() != 8 {
		t.Error("universal size")
	}
	if !RCC8Set(0).IsEmpty() || s.IsEmpty() {
		t.Error("IsEmpty wrong")
	}
	if s.Intersect(NewRCC8Set(EC, PO)) != NewRCC8Set(EC) {
		t.Error("Intersect wrong")
	}
	if s.Union(NewRCC8Set(PO)) != NewRCC8Set(DC, EC, PO) {
		t.Error("Union wrong")
	}
	if NewRCC8Set(TPP, DC).Converse() != NewRCC8Set(TPPi, DC) {
		t.Error("set Converse wrong")
	}
	rels := NewRCC8Set(PO, DC).Relations()
	if len(rels) != 2 || rels[0] != DC || rels[1] != PO {
		t.Errorf("Relations = %v", rels)
	}
}

func TestCompositionIdentity(t *testing.T) {
	// EQ is the identity of the algebra.
	for _, r := range allRCC8() {
		if got := Compose(EQ, r); got != NewRCC8Set(r) {
			t.Errorf("EQ ∘ %v = %v", r, got)
		}
		if got := Compose(r, EQ); got != NewRCC8Set(r) {
			t.Errorf("%v ∘ EQ = %v", r, got)
		}
	}
}

func TestCompositionConverseLaw(t *testing.T) {
	// (r ∘ s)^-1 == s^-1 ∘ r^-1 must hold entry-wise in the table.
	for _, r := range allRCC8() {
		for _, s := range allRCC8() {
			lhs := Compose(r, s).Converse()
			rhs := ComposeSets(NewRCC8Set(s.Converse()), NewRCC8Set(r.Converse()))
			if lhs != rhs {
				t.Errorf("converse law fails for %v ∘ %v: %v vs %v", r, s, lhs, rhs)
			}
		}
	}
}

func TestCompositionContainsWitness(t *testing.T) {
	// Every table entry must contain at least one relation (RCC8
	// composition is never empty), and identity-related sanity rows.
	for _, r := range allRCC8() {
		for _, s := range allRCC8() {
			if Compose(r, s).IsEmpty() {
				t.Errorf("empty composition %v ∘ %v", r, s)
			}
		}
	}
	// Transitivity of strict containment.
	if Compose(NTPP, NTPP) != NewRCC8Set(NTPP) {
		t.Error("NTPP ∘ NTPP must be {NTPP}")
	}
	if Compose(NTPPi, NTPPi) != NewRCC8Set(NTPPi) {
		t.Error("NTPPi ∘ NTPPi must be {NTPPi}")
	}
	// A strict part of a region disconnected from c is disconnected too.
	if Compose(NTPP, DC) != NewRCC8Set(DC) {
		t.Error("NTPP ∘ DC must be {DC}")
	}
}

// randomRegion returns a random axis-aligned rectangle with small integer
// coordinates, occasionally snapped to share edges/containment with a
// base square to exercise the rarer relations.
func randomRegion(rng *rand.Rand) geom.Geometry {
	switch rng.Intn(6) {
	case 0: // the base square itself (EQ opportunities)
		return geom.Rect(2, 2, 6, 6)
	case 1: // strictly inside the base square (NTPP)
		return geom.Rect(3, 3, 5, 5)
	case 2: // inside sharing an edge (TPP)
		return geom.Rect(2, 3, 4, 5)
	case 3: // touching the base square (EC)
		return geom.Rect(6, 2, 8, 4)
	default:
		x := float64(rng.Intn(8))
		y := float64(rng.Intn(8))
		w := float64(1 + rng.Intn(5))
		h := float64(1 + rng.Intn(5))
		return geom.Rect(x, y, x+w, y+h)
	}
}

// TestCompositionSoundOnGeometry is the generative soundness check: for
// random region triples, the observed relation between a and c must be a
// member of the composition of the observed relations (a,b) and (b,c).
// A single wrong entry in the composition table fails this quickly.
func TestCompositionSoundOnGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 3000; trial++ {
		a, b, c := randomRegion(rng), randomRegion(rng), randomRegion(rng)
		rab, ok1 := RCC8Of(a, b)
		rbc, ok2 := RCC8Of(b, c)
		rac, ok3 := RCC8Of(a, c)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		checked++
		if !Compose(rab, rbc).Has(rac) {
			t.Fatalf("composition unsound: %v(a,b) ∘ %v(b,c) = %v but observed %v(a,c)\n a=%s\n b=%s\n c=%s",
				rab, rbc, Compose(rab, rbc), rac, a.WKT(), b.WKT(), c.WKT())
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d triples checked; generator too restrictive", checked)
	}
}

func TestNetworkBasics(t *testing.T) {
	net := NewNetwork(3)
	if net.Constraint(0, 0) != NewRCC8Set(EQ) {
		t.Error("diagonal must be EQ")
	}
	if net.Constraint(0, 1) != Universal {
		t.Error("off-diagonal must start universal")
	}
	if !net.Constrain(0, 1, NewRCC8Set(TPP)) {
		t.Fatal("constrain failed")
	}
	if net.Constraint(1, 0) != NewRCC8Set(TPPi) {
		t.Error("converse edge not maintained")
	}
	// Conflicting constraint empties the edge.
	if net.Constrain(0, 1, NewRCC8Set(DC)) {
		t.Error("conflicting constraint should report unsatisfiable")
	}
}

func TestPathConsistencyInfersComposition(t *testing.T) {
	// a NTPP b, b NTPP c: closure must infer a NTPP c.
	net := NewNetwork(3)
	net.Constrain(0, 1, NewRCC8Set(NTPP))
	net.Constrain(1, 2, NewRCC8Set(NTPP))
	if !net.PathConsistent() {
		t.Fatal("consistent network reported inconsistent")
	}
	if got := net.Constraint(0, 2); got != NewRCC8Set(NTPP) {
		t.Errorf("inferred (0,2) = %v, want {NTPP}", got)
	}
}

func TestPathConsistencyDetectsInconsistency(t *testing.T) {
	// a NTPP b, b NTPP c, a DC c is impossible (a must be inside c).
	net := NewNetwork(3)
	net.Constrain(0, 1, NewRCC8Set(NTPP))
	net.Constrain(1, 2, NewRCC8Set(NTPP))
	net.Constrain(0, 2, NewRCC8Set(DC))
	if net.PathConsistent() {
		t.Error("inconsistent network not detected")
	}
}

func TestNetworkFromSceneIsPathConsistent(t *testing.T) {
	// Any network observed from real geometry must be path-consistent —
	// another strong generative check of the composition table.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		regions := make([]geom.Geometry, 6)
		for i := range regions {
			regions[i] = randomRegion(rng)
		}
		net := NetworkFromScene(regions)
		if !net.PathConsistent() {
			t.Fatalf("observed scene network inconsistent (trial %d)", trial)
		}
	}
}

func TestNewNetworkPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewNetwork(-1)
}

func BenchmarkPathConsistency(b *testing.B) {
	// A 12-region network observed from geometry, re-closed each
	// iteration.
	rng := rand.New(rand.NewSource(9))
	regions := make([]geom.Geometry, 12)
	for i := range regions {
		regions[i] = randomRegion(rng)
	}
	base := NetworkFromScene(regions)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := NewNetwork(len(regions))
		for x := range regions {
			for y := x + 1; y < len(regions); y++ {
				net.Constrain(x, y, base.Constraint(x, y))
			}
		}
		if !net.PathConsistent() {
			b.Fatal("observed network inconsistent")
		}
	}
}

func BenchmarkRCC8Classify(b *testing.B) {
	a := geom.Rect(0, 0, 10, 10)
	c := geom.Rect(2, 2, 6, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, ok := RCC8Of(a, c); !ok || r != NTPPi {
			b.Fatal("classification wrong")
		}
	}
}
