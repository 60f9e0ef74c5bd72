package index

import (
	"context"
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
// coordinates up to ±1e9 and offsets inside the Eps band, a pile of
// coincident points and empty geometries, for d in {0, 5e-10, 1e-9, 1,
// 10}: every geometry at geom.Distance <= d from a query geometry is
// among Within(query envelope, d), which needs both the Eps part and
// the relative part of Envelope.Slack; an R-tree layer, a Linear layer
// and a layer keyed on prepared envelopes return the same IDs in
// ascending order, from Within and from Touching; and with the scene
// cut into two layers, Join between any two of those kinds, on one
// worker or four, returns exactly the per-geometry Within rows,
// concatenated in ascending order. So does Join between two columns of
// rectangles whose gap lies inside the slack band, where only the
// reach of both layers' slack keeps a node pair.
func TestLayerWithinReachesEveryPairWithinDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dists := []float64{0, 5e-10, 1e-9, 1, 10}
	reached := make(map[float64]int)
	joined := make(map[float64]int)
	checkJoin := func(trial int, as, bs []geom.Geometry) {
		t.Helper()
		joinA, joinB := kindLayers(t, as), kindLayers(t, bs)
		for _, d := range dists {
			var want []Pair
			for a, g := range as {
				for _, b := range joinB["linear"].Within(g.Envelope(), d, nil) {
					want = append(want, Pair{a, b})
				}
			}
			joined[d] += len(want)
			for na, la := range joinA {
				for nb, lb := range joinB {
					for _, workers := range []int{1, 4} {
						got, err := la.Join(context.Background(), lb, d, workers, []Pair{{-1, -1}})
						if err != nil || len(got) == 0 || got[0] != (Pair{-1, -1}) || !slices.Equal(got[1:], want) {
							t.Fatalf("trial %d: %s.Join(%s, d=%v, workers=%d) = %v, %v\nwant %v after the kept head", trial, na, nb, d, workers, got, err, want)
						}
					}
				}
			}
		}
	}
	for trial, gap := range []float64{0.5e-9, 1.5e-9, 2.5e-9} {
		var left, right []geom.Geometry
		for k := range 30 {
			y := float64(k)
			left = append(left, geom.Rect(0, y, 1, y+0.5))
			right = append(right, geom.Rect(1+gap, y, 2+gap, y+0.5))
		}
		checkJoin(-1-trial, left, right)
	}
	for trial := 0; trial < 150; trial++ {
		scene := bandScene(rng, 40)
		c := scene[0].Envelope().Center()
		extras := []geom.Geometry{geom.Pt(c.X, c.Y), geom.Pt(c.X, c.Y), geom.Pt(c.X, c.Y), geom.MultiPoint{}, geom.Polygon{}}
		half := slices.Concat(scene[:20], extras)
		gs := slices.Concat(half, scene[20:], extras)
		layers := kindLayers(t, gs)
		checkJoin(trial, half, gs[len(half):])
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
	t.Logf("pairs within distance: %v; joined pairs: %v", reached, joined)
}

// kindLayers builds an R-tree, a Linear and a prepared-envelope layer
// over gs.
func kindLayers(t *testing.T, gs []geom.Geometry) map[string]*Layer {
	t.Helper()
	env := func(j int) geom.Envelope { return gs[j].Envelope() }
	layers := map[string]*Layer{
		"rtree":    NewLayer(len(gs), env, nil, false),
		"linear":   NewLayer(len(gs), env, nil, true),
		"prepared": NewLayer(len(gs), nil, geom.PrepareAll(gs), false),
	}
	if layers["prepared"].Prepared == nil || layers["rtree"].Prepared != nil {
		t.Fatal("Layer.Prepared does not hold what NewLayer was given")
	}
	return layers
}
