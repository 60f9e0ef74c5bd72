package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// bandScene returns geometries clustered around one random centre whose
// coordinates reach ±1e9: points, segments, triangles and rectangles,
// each offset from the centre by a distance inside the Eps band (below,
// at and just above geom.Eps) or well outside it. Far from the origin
// the smallest offsets round away, and segment distances round by ulps
// of the coordinates; near it they survive.
func bandScene(rng *rand.Rand, n int) []geom.Geometry {
	scale := []float64{1, 1e3, 1e6, 1e9}[rng.Intn(4)]
	cx, cy := (2*rng.Float64()-1)*scale, (2*rng.Float64()-1)*scale
	offsets := []float64{0, 3e-10, 5e-10, 9e-10, 1e-9, 1.5e-9, 2e-9, 0.5, 1, 5, 10}
	gs := make([]geom.Geometry, n)
	for i := range gs {
		a := 2 * math.Pi * rng.Float64()
		off := offsets[rng.Intn(len(offsets))]
		x, y := cx+off*math.Cos(a), cy+off*math.Sin(a)
		size := []float64{0.5, 3}[rng.Intn(2)]
		b := 2 * math.Pi * rng.Float64()
		dx, dy := size*math.Cos(b), size*math.Sin(b)
		switch rng.Intn(4) {
		case 0:
			gs[i] = geom.Pt(x, y)
		case 1:
			gs[i] = geom.Line(geom.Pt(x, y), geom.Pt(x+dx, y+dy))
		case 2:
			gs[i] = geom.Poly(geom.Pt(x, y), geom.Pt(x+dx, y+dy), geom.Pt(x-dy, y+dx))
		default:
			gs[i] = geom.Rect(x, y, x+size, y+size/2)
		}
	}
	return gs
}

// TestLayerWithinReachesEveryPairWithinDistance is the reach property of
// the join's filters. Over scenes of points, segments and polygons with
// coordinates up to ±1e9 and offsets inside the Eps band, for d in
// {0, 5e-10, 1e-9, 1, 10}: every geometry at geom.Distance <= d from a
// query geometry is among Within(query envelope, d), which needs both
// the Eps part and the relative part of Envelope.Slack; and an R-tree
// layer, a Linear layer and a layer keyed on prepared envelopes return
// the same IDs in ascending order, from Within and from Touching.
func TestLayerWithinReachesEveryPairWithinDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dists := []float64{0, 5e-10, 1e-9, 1, 10}
	reached := make(map[float64]int)
	for trial := 0; trial < 150; trial++ {
		gs := bandScene(rng, 30)
		env := func(j int) geom.Envelope { return gs[j].Envelope() }
		prep := make([]*geom.Prepared, len(gs))
		for j, g := range gs {
			prep[j] = geom.Prepare(g)
		}
		layers := map[string]*Layer{
			"rtree":    NewLayer(len(gs), env, nil, false),
			"linear":   NewLayer(len(gs), env, nil, true),
			"prepared": NewLayer(len(gs), nil, prep, false),
		}
		if layers["prepared"].Prepared == nil || layers["rtree"].Prepared != nil {
			t.Fatal("Layer.Prepared does not hold what NewLayer was given")
		}
		for qi, q := range gs {
			qenv := q.Envelope()
			check := func(query string, run func(l *Layer) []int) []int {
				t.Helper()
				want := run(layers["linear"])
				if !slices.IsSorted(want) {
					t.Fatalf("trial %d: linear %s = %v, not ascending", trial, query, want)
				}
				for name, l := range layers {
					if got := run(l); !slices.Equal(got, want) {
						t.Fatalf("trial %d query %d: %s %s = %v, linear %v", trial, qi, name, query, got, want)
					}
				}
				return want
			}
			check("Touching", func(l *Layer) []int { return l.Touching(qenv, []int{-1}) })
			for _, d := range dists {
				ids := check(fmt.Sprintf("Within(d=%v)", d), func(l *Layer) []int { return l.Within(qenv, d, []int{-1}) })
				for j, g := range gs {
					if geom.Distance(q, g) > d {
						continue
					}
					reached[d]++
					if _, found := slices.BinarySearch(ids, j); !found {
						t.Fatalf("trial %d: Within(d=%v) misses geometry %d at distance %v\nquery %s\nmissed %s",
							trial, d, j, geom.Distance(q, g), geom.AppendWKT(nil, q), geom.AppendWKT(nil, g))
					}
				}
			}
		}
	}
	t.Logf("pairs within distance: %v", reached)
}
