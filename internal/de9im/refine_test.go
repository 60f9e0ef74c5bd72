package de9im

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// districtOperands are the refine stage's typical partners of one 10×10
// district: features strictly inside it, a disjoint one, and features
// crossing its boundary.
var districtOperands = []struct {
	name string
	g    geom.Geometry
}{
	{"point", geom.Pt(5, 5)},
	{"line", geom.Line(geom.Pt(2, 2), geom.Pt(5, 6), geom.Pt(8, 3))},
	{"polygon", geom.Rect(3, 3, 6, 6)},
	{"disjoint-polygon", geom.Rect(20, 20, 23, 23)},
	{"crossing-line", geom.Line(geom.Pt(-2, 5), geom.Pt(12, 5))},
	{"overlapping-polygon", geom.Rect(5, 5, 15, 15)},
}

// sceneLayers returns the geometries of every layer, reference first, of
// the 28×28 scene the cli-scene benchmark extracts first.
func sceneLayers(tb testing.TB) map[string][]geom.Geometry {
	tb.Helper()
	d, err := datagen.GenerateScene(datagen.DefaultScene(28, 28, 12))
	if err != nil {
		tb.Fatal(err)
	}
	layers := map[string][]geom.Geometry{}
	for _, l := range append([]*dataset.Layer{d.Reference}, d.Relevant...) {
		gs := make([]geom.Geometry, l.Len())
		for i := range l.Features {
			gs[i] = l.Features[i].Geometry
		}
		layers[l.Type] = gs
	}
	return layers
}

// TestRefineAllocs pins the refine stage's allocations per call: a relate
// allocates nothing, whether or not a cut reaches either side (the split
// output and nodes go to the pooled scratch), nor do the prepared
// distance decision and a standalone Locate, and PrepareAll makes a
// fixed number per layer, however long.
func TestRefineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	district := geom.Prepare(geom.Rect(0, 0, 10, 10))
	for _, op := range districtOperands {
		pg := geom.Prepare(op.g)
		RelatePrepared(district, pg) // warm the pooled scratch
		if got := testing.AllocsPerRun(100, func() { RelatePrepared(district, pg) }); got != 0 {
			t.Errorf("RelatePrepared(district, %s): %v allocations, want 0", op.name, got)
		}
		for _, d := range []float64{0, 1, 5} {
			if got := testing.AllocsPerRun(100, func() { district.WithinDistance(pg, d) }); got != 0 {
				t.Errorf("WithinDistance(district, %s, %v): %v allocations, want 0", op.name, d, got)
			}
		}
		if got := testing.AllocsPerRun(100, func() { district.WithinDistances(pg, 1, 5) }); got != 0 {
			t.Errorf("WithinDistances(district, %s, 1, 5): %v allocations, want 0", op.name, got)
		}
	}
	far := geom.Prepare(geom.Rect(13, 0, 14, 1))
	for _, d := range []float64{1, 5} {
		if got := testing.AllocsPerRun(100, func() { district.WithinDistance(far, d) }); got != 0 {
			t.Errorf("WithinDistance(%v): %v allocations, want 0", d, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() { district.WithinDistances(far, 1, 5) }); got != 0 {
		t.Errorf("WithinDistances(1, 5): %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { district.Locate(geom.Pt(5, 5)) }); got != 0 {
		t.Errorf("Locate: %v allocations, want 0", got)
	}
	const perLayer = 9 // seven arena tables, the blocks and the result
	for name, gs := range sceneLayers(t) {
		full := testing.AllocsPerRun(10, func() { geom.PrepareAll(gs) })
		half := testing.AllocsPerRun(10, func() { geom.PrepareAll(gs[:len(gs)/2]) })
		t.Logf("PrepareAll(%s): %v allocations for %d geometries, %v for %d", name, full, len(gs), half, len(gs)/2)
		if full > perLayer || full != half {
			t.Errorf("PrepareAll(%s): %v allocations for %d geometries, %v for %d; want one constant, at most %d",
				name, full, len(gs), half, len(gs)/2, perLayer)
		}
	}
}
