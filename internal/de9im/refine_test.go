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
	name      string
	g         geom.Geometry
	maxAllocs float64 // per RelatePrepared against the district
}{
	{"point", geom.Pt(5, 5), 0},
	{"line", geom.Line(geom.Pt(2, 2), geom.Pt(5, 6), geom.Pt(8, 3)), 0},
	{"polygon", geom.Rect(3, 3, 6, 6), 0},
	{"disjoint-polygon", geom.Rect(20, 20, 23, 23), 0},
	{"crossing-line", geom.Line(geom.Pt(-2, 5), geom.Pt(12, 5)), 4},
	{"overlapping-polygon", geom.Rect(5, 5, 15, 15), 4},
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
// with a feature no cut reaches allocates nothing, a crossing one only its
// split output and nodes, the prepared distance kernel nothing, and
// PrepareAll a fixed number per layer, however long.
func TestRefineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	district := geom.Prepare(geom.Rect(0, 0, 10, 10))
	for _, op := range districtOperands {
		pg := geom.Prepare(op.g)
		RelatePrepared(district, pg) // warm the pooled noding scratch
		got := testing.AllocsPerRun(100, func() { RelatePrepared(district, pg) })
		t.Logf("RelatePrepared(district, %s): %v allocations", op.name, got)
		if got > op.maxAllocs {
			t.Errorf("RelatePrepared(district, %s): %v allocations, want at most %v", op.name, got, op.maxAllocs)
		}
	}
	far := geom.Prepare(geom.Rect(13, 0, 14, 1))
	if got := testing.AllocsPerRun(100, func() { district.DistanceTo(far) }); got != 0 {
		t.Errorf("DistanceTo: %v allocations, want 0", got)
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
