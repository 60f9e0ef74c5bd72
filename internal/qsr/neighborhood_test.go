package qsr

import (
	"testing"

	"repro/internal/geom"
)

func TestNeighborhoodSymmetric(t *testing.T) {
	for _, r := range allRCC8() {
		for _, s := range rcc8Neighbors[r].Relations() {
			if !rcc8Neighbors[s].Has(r) {
				t.Errorf("neighborhood not symmetric: %v -> %v", r, s)
			}
		}
	}
}

func TestNeighborhoodConnected(t *testing.T) {
	// Every relation reaches every other in at most 4 steps.
	for _, r := range allRCC8() {
		for _, s := range allRCC8() {
			d := NeighborhoodDistance(r, s)
			if d < 0 || d > 4 {
				t.Errorf("distance %v -> %v = %d", r, s, d)
			}
		}
	}
	if NeighborhoodDistance(DC, NTPP) != 4 {
		t.Errorf("DC->NTPP = %d, want 4 (DC-EC-PO-TPP-NTPP)", NeighborhoodDistance(DC, NTPP))
	}
	if NeighborhoodDistance(EQ, EQ) != 0 {
		t.Error("self distance")
	}
	if NeighborhoodDistance(TPP, TPPi) != 2 {
		t.Errorf("TPP->TPPi = %d, want 2 (via EQ or PO)", NeighborhoodDistance(TPP, TPPi))
	}
}

func TestIsNeighborhoodMove(t *testing.T) {
	cases := []struct {
		r, s RCC8
		want bool
	}{
		{DC, EC, true},
		{DC, DC, true},
		{DC, PO, false},   // must pass through EC
		{DC, NTPP, false}, // the canonical implausible jump
		{TPP, EQ, true},
		{EQ, PO, false}, // EQ deforms through TPP/TPPi first
		{NTPP, TPP, true},
	}
	for _, tc := range cases {
		if got := IsNeighborhoodMove(tc.r, tc.s); got != tc.want {
			t.Errorf("IsNeighborhoodMove(%v, %v) = %v, want %v", tc.r, tc.s, got, tc.want)
		}
	}
}

func TestPlausibleSequence(t *testing.T) {
	approach := []RCC8{DC, EC, PO, TPP, NTPP} // region entering another
	if !PlausibleSequence(approach) {
		t.Error("continuous approach must be plausible")
	}
	teleport := []RCC8{DC, NTPP}
	if PlausibleSequence(teleport) {
		t.Error("DC -> NTPP jump must be implausible")
	}
	if !PlausibleSequence(nil) || !PlausibleSequence([]RCC8{PO}) {
		t.Error("trivial sequences must be plausible")
	}
}

func TestNeighborhoodMatchesContinuousMotion(t *testing.T) {
	// Generative check: slide a square across a fixed one in small steps
	// and verify the observed relation sequence is neighborhood-
	// plausible (after removing consecutive duplicates).
	fixed := geom.Rect(0, 0, 10, 10)
	var seq []RCC8
	for x := -30.0; x <= 30; x += 0.5 {
		moving := geom.Rect(x, 2, x+6, 8)
		r, ok := RCC8Of(moving, fixed)
		if !ok {
			t.Fatal("no relation")
		}
		if len(seq) == 0 || seq[len(seq)-1] != r {
			seq = append(seq, r)
		}
	}
	if !PlausibleSequence(seq) {
		t.Errorf("observed motion sequence implausible: %v", seq)
	}
	// The pass must actually traverse several relations.
	if len(seq) < 5 {
		t.Errorf("motion produced only %v", seq)
	}
}
