package qsr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/index"
)

// TestPreparedWrappersMatchUnprepared pins the three prepared entry
// points against their unprepared counterparts over random polygon,
// line, and point pairs.
func TestPreparedWrappersMatchUnprepared(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	half := func(n int) float64 { return float64(rng.Intn(n)) / 2 }
	randGeom := func() geom.Geometry {
		switch rng.Intn(3) {
		case 0:
			x, y := half(10), half(10)
			return geom.Rect(x, y, x+0.5+half(6), y+0.5+half(6))
		case 1:
			x, y := half(10), half(10)
			return geom.Line(geom.Pt(x, y), geom.Pt(x+half(6), y+half(6)), geom.Pt(x+half(6), y))
		default:
			return geom.Pt(half(12), half(12))
		}
	}
	thresholds := []DistanceThresholds{
		DefaultThresholds(4),
		{VeryCloseMax: 0.5, CloseMax: 1},
		{VeryCloseMax: 0, CloseMax: 0}, // everything beyond contact is farFrom
	}
	for trial := 0; trial < 300; trial++ {
		a, b := randGeom(), randGeom()
		pa, pb := geom.Prepare(a), geom.Prepare(b)

		relW, okW := Topological(a, b)
		relG, okG := TopologicalPrepared(pa, pb)
		if relW != relG || okW != okG {
			t.Fatalf("trial %d: Topological (%v,%v) vs prepared (%v,%v)\n a=%s\n b=%s",
				trial, relW, okW, relG, okG, a.WKT(), b.WKT())
		}
		for _, th := range thresholds {
			if w, g := DistanceRelation(a, b, th), DistanceRelationPrepared(pa, pb, th); w != g {
				t.Fatalf("trial %d: DistanceRelation %v vs prepared %v (thresholds %+v)\n a=%s\n b=%s",
					trial, w, g, th, a.WKT(), b.WKT())
			}
		}
		dW, okW := Directional(a, b)
		dG, okG := DirectionalPrepared(pa, pb)
		if dW != dG || okW != okG {
			t.Fatalf("trial %d: Directional (%v,%v) vs prepared (%v,%v)", trial, dW, okW, dG, okG)
		}
	}
}

// TestDistanceRelationPreparedMatchesClassify holds the prepared
// classification, two WithinDistance decisions, to Classify of the
// measured distance on every candidate pair of the first 28×28 cli-scene
// scene: each district against every feature of every layer that the
// extraction's CloseMax gather returns for it, both ways round. The
// thresholds sit on the pair's own distance and its float neighbours,
// where a decision that drifts from the measurement by one ulp would
// change the class.
func TestDistanceRelationPreparedMatchesClassify(t *testing.T) {
	d, err := datagen.GenerateScene(datagen.DefaultScene(28, 28, 2007*4))
	if err != nil {
		t.Fatal(err)
	}
	gather := DefaultThresholds(10).CloseMax
	refs := make([]geom.Geometry, d.Reference.Len())
	for i := range refs {
		refs[i] = d.Reference.Features[i].Geometry
	}
	prepRefs := geom.PrepareAll(refs)
	pairs := 0
	var ids []int
	for _, l := range d.Relevant {
		gs := make([]geom.Geometry, l.Len())
		for i := range gs {
			gs[i] = l.Features[i].Geometry
		}
		layer := index.NewLayer(len(gs), nil, geom.PrepareAll(gs), false)
		for r, pr := range prepRefs {
			ids = layer.Within(pr.Envelope(), gather, ids)
			for _, j := range ids {
				pairs++
				for _, o := range []struct {
					a, b   geom.Geometry
					pa, pb *geom.Prepared
				}{{refs[r], gs[j], pr, layer.Prepared[j]}, {gs[j], refs[r], layer.Prepared[j], pr}} {
					D := geom.Distance(o.a, o.b)
					near := []float64{math.Nextafter(D, math.Inf(-1)), D, math.Nextafter(D, math.Inf(1))}
					for _, vc := range near {
						for _, c := range near {
							th := DistanceThresholds{VeryCloseMax: vc, CloseMax: c}
							if got, want := DistanceRelationPrepared(o.pa, o.pb, th), th.Classify(D); got != want {
								t.Fatalf("%s vs %s under %+v: prepared %v, Classify(%v) %v",
									o.a.WKT(), o.b.WKT(), th, got, D, want)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d candidate pairs", pairs)
	if pairs < 10000 {
		t.Fatalf("only %d candidate pairs; the scene should give over 10,000", pairs)
	}
}
