package colocation_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/colocation"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
)

// TestColocationMatchesBruteForceOnGeneratedScenes is the property test
// mirroring TestEnginesEquivalentOnGeneratedScenes: across generated
// planted scenes × distances × minPI × GOMAXPROCS ∈ {1, 4}, the
// R-tree + participation-index engine must report exactly
// the oracle's prevalent patterns — same sets, same PI floats, same row
// counts, same order — unrestricted, capped at MaxSize 2, and cut to
// the top 3 by PI. Two hand-built scenes put a pair inside the Eps band
// in which geom.Distance calls geometries 0 apart, at distances below
// the pair's envelope gap: the neighbour filter must still let it
// through.
func TestColocationMatchesBruteForceOnGeneratedScenes(t *testing.T) {
	for _, sc := range append(plantedScenes(t), epsBandScenes()...) {
		ds := sc.ds
		for _, dist := range sc.dists {
			for _, minPI := range []float64{0.2, 0.5} {
				full, err := colocation.MineBruteForce(ds, colocation.Config{Distance: dist, MinPI: minPI})
				if err != nil {
					t.Fatalf("%s: oracle: %v", sc.name, err)
				}
				// Each variant restricts the walk; its expected patterns
				// are derived from the unrestricted oracle result
				// independently of the engine's own cap or selection.
				variants := []struct {
					name   string
					adjust func(*colocation.Config)
					expect func([]colocation.Pattern) []colocation.Pattern
				}{
					{"full", func(*colocation.Config) {}, func(p []colocation.Pattern) []colocation.Pattern { return p }},
					{"maxsize=2", func(c *colocation.Config) { c.MaxSize = 2 }, func(p []colocation.Pattern) []colocation.Pattern { return maxSizeReference(p, 2) }},
					{"topk=3", func(c *colocation.Config) { c.TopK = 3 }, func(p []colocation.Pattern) []colocation.Pattern { return topKReference(p, 3) }},
				}
				for _, par := range []int{1, 4} {
					for _, v := range variants {
						cfg := colocation.Config{Distance: dist, MinPI: minPI}
						v.adjust(&cfg)
						want := v.expect(full.Prevalent)
						t.Run(fmt.Sprintf("%s/dist=%v/minpi=%v/par=%d/%s", sc.name, dist, minPI, par, v.name), func(t *testing.T) {
							oracle, err := colocation.MineBruteForce(ds, cfg)
							if err != nil {
								t.Fatalf("oracle: %v", err)
							}
							if !reflect.DeepEqual(oracle.Prevalent, want) {
								t.Fatalf("oracle != reference:\n got %+v\nwant %+v", oracle.Prevalent, want)
							}
							got := mustMineAt(t, par, ds, cfg)
							if !reflect.DeepEqual(got.Prevalent, want) {
								t.Fatalf("engine != oracle:\n got %+v\nwant %+v", got.Prevalent, want)
							}
							if got.Instances != full.Instances || !reflect.DeepEqual(got.Types, full.Types) {
								t.Fatalf("world mismatch: got %d %v, want %d %v",
									got.Instances, got.Types, full.Instances, full.Types)
							}
						})
					}
				}
			}
		}
	}
}

// oracleScene is one input of the engine-vs-oracle test: a scene and the
// neighbourhood distances it is mined at.
type oracleScene struct {
	name  string
	ds    *dataset.Dataset
	dists []float64
}

// plantedScenes are the generated scenes of the engine-vs-oracle test,
// each mined at distances 0.5, 2 and 8.
func plantedScenes(t *testing.T) []oracleScene {
	t.Helper()
	generated := []struct {
		name string
		cfg  datagen.ColocationSceneConfig
	}{
		{"default", datagen.DefaultColocationScene(7)},
		{"dense", datagen.ColocationSceneConfig{
			Seed: 11, Types: []string{"p", "q", "r"}, Extent: 20,
			Clusters: 10, ClusterSpread: 0.8, Noise: 5,
		}},
		{"sparse noise-only", datagen.ColocationSceneConfig{
			Seed: 3, Types: []string{"x", "y", "z", "w"}, Extent: 60,
			Clusters: 0, ClusterSpread: 0.5, Noise: 12,
		}},
		{"tight overlapping plants", datagen.ColocationSceneConfig{
			Seed: 23, Types: []string{"a", "b", "c", "d"}, Extent: 40,
			Clusters: 8, ClusterSpread: 0.3,
			Planted: [][]string{{"a", "b", "c"}, {"b", "c", "d"}, {"a", "d"}},
			Noise:   4,
		}},
	}
	var scenes []oracleScene
	for _, sc := range generated {
		ds, err := datagen.GenerateColocationScene(sc.cfg)
		if err != nil {
			t.Fatalf("%s: generate: %v", sc.name, err)
		}
		scenes = append(scenes, oracleScene{sc.name, ds, []float64{0.5, 2, 8}})
	}
	return scenes
}

// TestColocationInvariantUnderPermutation is a metamorphic property of
// Mine: on the planted scenes, at each of their distances, at MinPI 0.2
// and 0.5 and at GOMAXPROCS 1 and 4, shuffling the features within
// every layer and the order of the layers (the first becomes the
// reference) leaves the prevalent patterns (types, PI bits, row counts),
// CandidatePairs and RefinedPairs as they were. The neighbour join
// visits instances in tree order and the walk numbers them by feature
// order, so this pins that neither numbering reaches the result.
func TestColocationInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sc := range plantedScenes(t) {
		shuffled := make([]*dataset.Dataset, 3)
		for i := range shuffled {
			shuffled[i] = permutedScene(sc.ds, rng)
		}
		for _, dist := range sc.dists {
			for _, minPI := range []float64{0.2, 0.5} {
				for _, par := range []int{1, 4} {
					cfg := colocation.Config{Distance: dist, MinPI: minPI}
					want := mustMineAt(t, par, sc.ds, cfg)
					for i, ds := range shuffled {
						got := mustMineAt(t, par, ds, cfg)
						if got.CandidatePairs != want.CandidatePairs || got.RefinedPairs != want.RefinedPairs ||
							!samePatterns(got.Prevalent, want.Prevalent) {
							t.Fatalf("%s/dist=%v/minpi=%v/par=%d: permutation %d moved the result:\n got %d/%d %+v\nwant %d/%d %+v",
								sc.name, dist, minPI, par, i, got.CandidatePairs, got.RefinedPairs, got.Prevalent,
								want.CandidatePairs, want.RefinedPairs, want.Prevalent)
						}
					}
				}
			}
		}
	}
}

// TestPointSideMatchesPreparedSide mines each planted scene and the
// Eps-band point pair, whose instances are all points and so take the
// point–point refine, and the same scene beside one more type: a single
// square far from every point, which sends every type to prepared
// geometry. The square neighbours nothing, so the prevalent patterns
// (types, PI bits, row counts), CandidatePairs and RefinedPairs must
// agree, at each distance, MinPI 0.2 and 0.5, and GOMAXPROCS 1 and 4;
// coloc.prepared shows which side each mine took.
func TestPointSideMatchesPreparedSide(t *testing.T) {
	mine := func(procs int, ds *dataset.Dataset, cfg colocation.Config) (*colocation.Result, int64) {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tr := obs.New(nil)
		res, err := colocation.MineContext(obs.WithTrace(context.Background(), tr), ds, cfg)
		if err != nil {
			t.Fatalf("MineContext: %v", err)
		}
		return res, tr.Counter("coloc.prepared")
	}
	for _, sc := range append(plantedScenes(t), epsBandScenes()[0]) {
		far := dataset.NewLayer("far")
		far.AddGeometry(geom.Rect(1e6, 1e6, 1e6+1, 1e6+1))
		mixed := &dataset.Dataset{Reference: sc.ds.Reference, Relevant: append(slices.Clip(sc.ds.Relevant), far)}
		for _, dist := range sc.dists {
			for _, minPI := range []float64{0.2, 0.5} {
				for _, par := range []int{1, 4} {
					cfg := colocation.Config{Distance: dist, MinPI: minPI}
					points, pointsPrepared := mine(par, sc.ds, cfg)
					prepared, preparedPrepared := mine(par, mixed, cfg)
					name := fmt.Sprintf("%s/dist=%v/minpi=%v/par=%d", sc.name, dist, minPI, par)
					if pointsPrepared != 0 || preparedPrepared != int64(prepared.Instances) {
						t.Fatalf("%s: coloc.prepared = %d and %d, want 0 and %d", name, pointsPrepared, preparedPrepared, prepared.Instances)
					}
					if points.CandidatePairs != prepared.CandidatePairs || points.RefinedPairs != prepared.RefinedPairs ||
						!samePatterns(points.Prevalent, prepared.Prevalent) {
						t.Fatalf("%s: the point side differs from the prepared side:\n got %d/%d %+v\nwant %d/%d %+v",
							name, points.CandidatePairs, points.RefinedPairs, points.Prevalent,
							prepared.CandidatePairs, prepared.RefinedPairs, prepared.Prevalent)
					}
				}
			}
		}
	}
}

// TestColocationInvariantUnderScaling is a metamorphic property of
// Mine: scaling every geometry and Config.Distance by the same power of
// two (2, 1/2 and 4, exact in floating point) leaves the prevalent
// patterns (types, PI bits, row counts) as they were. It runs on the
// planted scenes at their distances and on a default 12×12 polygon
// scene at distances 0, 1 and 5, at MinPI 0.2 and GOMAXPROCS 1 and 4.
func TestColocationInvariantUnderScaling(t *testing.T) {
	polygons, err := datagen.GenerateScene(datagen.DefaultScene(12, 12, 5))
	if err != nil {
		t.Fatal(err)
	}
	scenes := append(plantedScenes(t), oracleScene{"default polygon scene", polygons, []float64{0, 1, 5}})
	for _, sc := range scenes {
		prevalent := 0
		for _, dist := range sc.dists {
			for _, par := range []int{1, 4} {
				cfg := colocation.Config{Distance: dist, MinPI: 0.2}
				want := mustMineAt(t, par, sc.ds, cfg)
				prevalent += len(want.Prevalent)
				for _, k := range []float64{2, 0.5, 4} {
					scaled := cfg
					scaled.Distance = k * dist
					if got := mustMineAt(t, par, scaledScene(sc.ds, k), scaled); !samePatterns(got.Prevalent, want.Prevalent) {
						t.Fatalf("%s/dist=%v/par=%d: scaled by %v, the prevalent patterns moved:\n got %+v\nwant %+v",
							sc.name, dist, par, k, got.Prevalent, want.Prevalent)
					}
				}
			}
		}
		if prevalent == 0 {
			t.Fatalf("%s: no prevalent pattern at any distance, so the property is vacuous there", sc.name)
		}
	}
}

// scaledScene returns a copy of ds with every geometry scaled by k about
// the origin.
func scaledScene(ds *dataset.Dataset, k float64) *dataset.Dataset {
	scale := func(l *dataset.Layer) *dataset.Layer {
		features := slices.Clone(l.Features)
		for i := range features {
			features[i].Geometry = geom.Transform(features[i].Geometry, geom.ScaleAffine(k, k))
		}
		return &dataset.Layer{Type: l.Type, Features: features}
	}
	out := &dataset.Dataset{Reference: scale(ds.Reference)}
	for _, l := range ds.Relevant {
		out.Relevant = append(out.Relevant, scale(l))
	}
	return out
}

// permutedScene returns a copy of ds with each layer's features shuffled
// and the layers, reference included, in a shuffled order whose first
// becomes the reference.
func permutedScene(ds *dataset.Dataset, rng *rand.Rand) *dataset.Dataset {
	layers := append([]*dataset.Layer{ds.Reference}, ds.Relevant...)
	for i, l := range layers {
		features := slices.Clone(l.Features)
		rng.Shuffle(len(features), func(a, b int) { features[a], features[b] = features[b], features[a] })
		layers[i] = &dataset.Layer{Type: l.Type, Features: features}
	}
	rng.Shuffle(len(layers), func(a, b int) { layers[a], layers[b] = layers[b], layers[a] })
	return &dataset.Dataset{Reference: layers[0], Relevant: layers[1:]}
}

// samePatterns reports whether two pattern lists are equal with each
// participation index compared bit for bit.
func samePatterns(a, b []colocation.Pattern) bool {
	return slices.EqualFunc(a, b, func(x, y colocation.Pattern) bool {
		return slices.Equal(x.Types, y.Types) && math.Float64bits(x.PI) == math.Float64bits(y.PI) && x.Rows == y.Rows
	})
}

// epsBandScenes are two pairs whose envelopes lie less than geom.Eps
// apart, mined at Distance 0 and 5e-10: two points 0.9e-9 apart, and two
// unit squares 5e-10 apart.
func epsBandScenes() []oracleScene {
	squares := func(name string, minX float64) *dataset.Layer {
		l := dataset.NewLayer(name)
		l.AddGeometry(geom.Rect(minX, 0, minX+1, 1))
		return l
	}
	dists := []float64{0, 5e-10}
	return []oracleScene{
		{"eps-band points", &dataset.Dataset{Reference: pointLayer("A", 0, 0), Relevant: []*dataset.Layer{pointLayer("B", 0.9e-9, 0)}}, dists},
		{"eps-band squares", &dataset.Dataset{Reference: squares("A", 0), Relevant: []*dataset.Layer{squares("B", 1+5e-10)}}, dists},
	}
}

// maxSizeReference keeps the patterns of at most max types, in their
// original order — what a walk capped at MaxSize must report, since a
// pattern's prevalence does not depend on the cap.
func maxSizeReference(prevalent []colocation.Pattern, max int) []colocation.Pattern {
	var out []colocation.Pattern
	for _, p := range prevalent {
		if len(p.Types) <= max {
			out = append(out, p)
		}
	}
	return out
}

// TestGeneratedSceneDeterministic: one seed, one scene.
func TestGeneratedSceneDeterministic(t *testing.T) {
	a, err := datagen.GenerateColocationScene(datagen.DefaultColocationScene(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := datagen.GenerateColocationScene(datagen.DefaultColocationScene(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different scenes")
	}
}

// TestPlantedPatternsPrevalent: at a distance covering the cluster
// spread and a PI below the planting rate, every planted set (and by
// anti-monotonicity each of its subsets) must surface.
func TestPlantedPatternsPrevalent(t *testing.T) {
	cfg := datagen.ColocationSceneConfig{
		Seed: 5, Types: []string{"atm", "busStop", "cafe"}, Extent: 200,
		Clusters: 10, ClusterSpread: 0.5,
		Planted: [][]string{{"atm", "busStop", "cafe"}},
		Noise:   3,
	}
	ds, err := datagen.GenerateColocationScene(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 of 13 instances of each type sit in planted cliques.
	res, err := colocation.Mine(ds, colocation.Config{Distance: 1.0, MinPI: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.Prevalent {
		if reflect.DeepEqual(p.Types, []string{"atm", "busStop", "cafe"}) {
			found = true
			if p.PI < 0.6 {
				t.Fatalf("planted pattern PI = %v", p.PI)
			}
		}
	}
	if !found {
		t.Fatalf("planted {atm,busStop,cafe} not prevalent; got %+v", res.Prevalent)
	}
}
