package colocation_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/colocation"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
)

// pointLayer builds a point layer from coordinate pairs.
func pointLayer(name string, coords ...float64) *dataset.Layer {
	l := dataset.NewLayer(name)
	for i := 0; i+1 < len(coords); i += 2 {
		l.AddGeometry(geom.Pt(coords[i], coords[i+1]))
	}
	return l
}

func mustMine(t *testing.T, ds *dataset.Dataset, cfg colocation.Config) *colocation.Result {
	t.Helper()
	res, err := colocation.Mine(ds, cfg)
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	return res
}

// mustMineAt is mustMine with GOMAXPROCS set to procs, the width of
// every pool Mine starts.
func mustMineAt(t *testing.T, procs int, ds *dataset.Dataset, cfg colocation.Config) *colocation.Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return mustMine(t, ds, cfg)
}

// TestKnownScene pins the engine on a scene small enough to verify by
// hand: A and B co-locate at two of three sites, C joins at one.
//
//	a1(0,0) b1(0,1)        a2(10,0) b2(10,1) c1(10,2)       a3(20,0)
//	b3(30,30)  c2(40,40)
func TestKnownScene(t *testing.T) {
	ds := &dataset.Dataset{
		Reference: pointLayer("A", 0, 0, 10, 0, 20, 0),
		Relevant: []*dataset.Layer{
			pointLayer("B", 0, 1, 10, 1, 30, 30),
			pointLayer("C", 10, 2, 40, 40),
		},
	}
	res := mustMine(t, ds, colocation.Config{Distance: 2.5, MinPI: 0.3})

	if got, want := res.Types, []string{"A", "B", "C"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Types = %v, want %v", got, want)
	}
	if res.Instances != 8 {
		t.Fatalf("Instances = %d, want 8", res.Instances)
	}
	want := []colocation.Pattern{
		// a1-b1 and a2-b2: 2/3 of A, 2/3 of B.
		{Types: []string{"A", "B"}, PI: 2.0 / 3.0, Rows: 2},
		// a2-c1: 1/3 of A, 1/2 of C.
		{Types: []string{"A", "C"}, PI: 1.0 / 3.0, Rows: 1},
		// b2-c1: 1/3 of B, 1/2 of C.
		{Types: []string{"B", "C"}, PI: 1.0 / 3.0, Rows: 1},
		// a2-b2-c1: 1/3, 1/3, 1/2 -> PI 1/3.
		{Types: []string{"A", "B", "C"}, PI: 1.0 / 3.0, Rows: 1},
	}
	if !reflect.DeepEqual(res.Prevalent, want) {
		t.Fatalf("Prevalent = %+v, want %+v", res.Prevalent, want)
	}
	if res.RefinedPairs != 4 {
		t.Fatalf("RefinedPairs = %d, want 4 (a1b1, a2b2, a2c1, b2c1)", res.RefinedPairs)
	}
	if res.CandidatePairs < res.RefinedPairs {
		t.Fatalf("CandidatePairs = %d < RefinedPairs = %d", res.CandidatePairs, res.RefinedPairs)
	}
}

// TestMinPIPrunes verifies the threshold actually filters: the same
// scene at a strict MinPI keeps only the strong pair.
func TestMinPIPrunes(t *testing.T) {
	ds := &dataset.Dataset{
		Reference: pointLayer("A", 0, 0, 10, 0, 20, 0),
		Relevant: []*dataset.Layer{
			pointLayer("B", 0, 1, 10, 1, 30, 30),
			pointLayer("C", 10, 2, 40, 40),
		},
	}
	res := mustMine(t, ds, colocation.Config{Distance: 2.5, MinPI: 0.5})
	want := []colocation.Pattern{{Types: []string{"A", "B"}, PI: 2.0 / 3.0, Rows: 2}}
	if !reflect.DeepEqual(res.Prevalent, want) {
		t.Fatalf("Prevalent = %+v, want %+v", res.Prevalent, want)
	}
}

// TestZeroDistanceCoincidentPoints: at distance 0 only exactly
// coincident instances are neighbors.
func TestZeroDistanceCoincidentPoints(t *testing.T) {
	ds := &dataset.Dataset{
		Reference: pointLayer("A", 1, 1, 5, 5),
		Relevant: []*dataset.Layer{
			pointLayer("B", 1, 1, 9, 9),
		},
	}
	res := mustMine(t, ds, colocation.Config{Distance: 0, MinPI: 0.5})
	want := []colocation.Pattern{{Types: []string{"A", "B"}, PI: 0.5, Rows: 1}}
	if !reflect.DeepEqual(res.Prevalent, want) {
		t.Fatalf("Prevalent = %+v, want %+v", res.Prevalent, want)
	}
}

// TestDegenerateDatasets: empty layers, a single type, and nil
// geometries must not panic and must report nothing prevalent.
func TestDegenerateDatasets(t *testing.T) {
	cfg := colocation.Config{Distance: 1, MinPI: 0.5}
	cases := []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"empty layers", &dataset.Dataset{Reference: dataset.NewLayer("A"), Relevant: []*dataset.Layer{dataset.NewLayer("B")}}},
		{"single type", &dataset.Dataset{Reference: pointLayer("A", 0, 0, 1, 1)}},
		{"nil relevant entry", &dataset.Dataset{Reference: pointLayer("A", 0, 0), Relevant: []*dataset.Layer{nil}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := mustMine(t, tc.ds, cfg)
			if len(res.Prevalent) != 0 {
				t.Fatalf("Prevalent = %+v, want none", res.Prevalent)
			}
		})
	}
	if _, err := colocation.Mine(nil, cfg); err == nil {
		t.Fatalf("Mine(nil) should error")
	}
}

// TestMergedLayersSameType: two layers with one type name are one
// instance population.
func TestMergedLayersSameType(t *testing.T) {
	ds := &dataset.Dataset{
		Reference: pointLayer("A", 0, 0),
		Relevant: []*dataset.Layer{
			pointLayer("B", 0, 1),
			pointLayer("B", 50, 50), // far-away second B population
		},
	}
	res := mustMine(t, ds, colocation.Config{Distance: 2, MinPI: 0.5})
	want := []colocation.Pattern{{Types: []string{"A", "B"}, PI: 0.5, Rows: 1}}
	if !reflect.DeepEqual(res.Prevalent, want) {
		t.Fatalf("Prevalent = %+v, want %+v", res.Prevalent, want)
	}
}

// TestMaxSizeCapsWalk: MaxSize 2 stops before the triple.
func TestMaxSizeCapsWalk(t *testing.T) {
	ds := &dataset.Dataset{
		Reference: pointLayer("A", 0, 0),
		Relevant: []*dataset.Layer{
			pointLayer("B", 0, 1),
			pointLayer("C", 1, 0),
		},
	}
	res := mustMine(t, ds, colocation.Config{Distance: 2, MinPI: 1, MaxSize: 2})
	for _, p := range res.Prevalent {
		if len(p.Types) > 2 {
			t.Fatalf("pattern %v exceeds MaxSize 2", p.Types)
		}
	}
	if len(res.Prevalent) != 3 {
		t.Fatalf("Prevalent = %+v, want the 3 pairs", res.Prevalent)
	}
}

// TestParallelismByteIdentical: the full result is identical at any
// worker count, including counters, the StarPruned diagnostic, and
// pattern order. Beyond the lattice scene, generated scenes × distances
// × minPI compare GOMAXPROCS 4 against 1. Run under -race in CI, this
// also exercises the parallel CSR materialization and the sharded walk
// for data races.
func TestParallelismByteIdentical(t *testing.T) {
	ds := gridScene()
	cfg := colocation.Config{Distance: 1.5, MinPI: 0.2}
	base := mustMineAt(t, 1, ds, cfg)
	for _, procs := range []int{runtime.GOMAXPROCS(0), 2, 4, 9} {
		got := mustMineAt(t, procs, ds, cfg)
		got.Duration = base.Duration
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("GOMAXPROCS %d diverged:\n got %+v\nwant %+v", procs, got, base)
		}
	}

	scenes := []struct {
		name string
		cfg  datagen.ColocationSceneConfig
	}{
		{"default", datagen.DefaultColocationScene(19)},
		{"clutter", datagen.ColocationSceneConfig{
			Seed: 29, Types: []string{"a", "b", "c", "d"}, Extent: 12,
			Clusters: 8, ClusterSpread: 0.6, Noise: 40,
		}},
		{"planted cliques", datagen.ColocationSceneConfig{
			Seed: 31, Types: []string{"p", "q", "r"}, Extent: 50,
			Clusters: 12, ClusterSpread: 0.4,
			Planted: [][]string{{"p", "p", "q", "q", "r"}, {"q", "r"}},
			Noise:   6,
		}},
	}
	for _, sc := range scenes {
		ds, err := datagen.GenerateColocationScene(sc.cfg)
		if err != nil {
			t.Fatalf("%s: generate: %v", sc.name, err)
		}
		for _, dist := range []float64{1, 4} {
			for _, minPI := range []float64{0.2, 0.5} {
				t.Run(fmt.Sprintf("%s/dist=%v/minpi=%v", sc.name, dist, minPI), func(t *testing.T) {
					cfg := colocation.Config{Distance: dist, MinPI: minPI}
					want := mustMineAt(t, 1, ds, cfg)
					got := mustMineAt(t, 4, ds, cfg)
					got.Duration = want.Duration
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("par=4 diverged from par=1:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// gridScene lays four types on overlapping lattices so many pairs and
// triples clear low thresholds.
func gridScene() *dataset.Dataset {
	names := []string{"A", "B", "C", "D"}
	layers := make([]*dataset.Layer, len(names))
	for i, n := range names {
		layers[i] = dataset.NewLayer(n)
		for x := 0; x < 5; x++ {
			for y := 0; y < 3; y++ {
				layers[i].AddGeometry(geom.Pt(float64(x)*3+float64(i)*0.4, float64(y)*3+float64(i)*0.3))
			}
		}
	}
	return &dataset.Dataset{Reference: layers[0], Relevant: layers[1:]}
}

// TestCancellation: a pre-cancelled context aborts the run before the
// neighbour search examines a single candidate pair.
func TestCancellation(t *testing.T) {
	tr := obs.New(nil)
	ctx, cancel := context.WithCancel(obs.WithTrace(context.Background(), tr))
	cancel()
	_, err := colocation.MineContext(ctx, gridScene(), colocation.Config{Distance: 1.5, MinPI: 0.2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := tr.Counter("coloc.pairs.candidates"); got != 0 {
		t.Fatalf("coloc.pairs.candidates = %d after cancellation, want 0", got)
	}
}

// TestTraceCounters: the materialization counters flow through obs.
func TestTraceCounters(t *testing.T) {
	tr := obs.New(nil)
	ctx := obs.WithTrace(context.Background(), tr)
	res, err := colocation.MineContext(ctx, gridScene(), colocation.Config{Distance: 1.5, MinPI: 0.2})
	if err != nil {
		t.Fatalf("MineContext: %v", err)
	}
	if got := tr.Counter("coloc.pairs.candidates"); got != res.CandidatePairs || got == 0 {
		t.Fatalf("coloc.pairs.candidates = %d, result says %d", got, res.CandidatePairs)
	}
	if got := tr.Counter("coloc.pairs.refined"); got != res.RefinedPairs || got == 0 {
		t.Fatalf("coloc.pairs.refined = %d, result says %d", got, res.RefinedPairs)
	}
	if tr.Counter("coloc.candidates") == 0 || tr.Counter("coloc.workers") == 0 {
		t.Fatalf("walk counters missing: %v", tr.Counters())
	}
	if tr.Counter("coloc.neighbors.workers") == 0 {
		t.Fatalf("coloc.neighbors.workers missing: %v", tr.Counters())
	}
	if tr.Counter("coloc.rows.peak") == 0 {
		t.Fatalf("coloc.rows.peak missing: %v", tr.Counters())
	}
	if got := tr.Counter("coloc.star.pruned"); got != int64(res.StarPruned) {
		t.Fatalf("coloc.star.pruned = %d, result says %d", got, res.StarPruned)
	}
	// Every instance of the grid is a point: nothing is prepared.
	if got := tr.Counter("coloc.prepared"); got != 0 {
		t.Fatalf("coloc.prepared = %d on an all-points scene, want 0", got)
	}

	// One polygon layer sends every type, the point types too, to the
	// prepared side.
	mixed := gridScene()
	parks := dataset.NewLayer("P")
	parks.AddGeometry(geom.Rect(0, 0, 1, 1))
	parks.AddGeometry(geom.Rect(6, 3, 7, 4))
	mixed.Relevant = append(mixed.Relevant, parks)
	tr = obs.New(nil)
	res, err = colocation.MineContext(obs.WithTrace(context.Background(), tr), mixed, colocation.Config{Distance: 1.5, MinPI: 0.2})
	if err != nil {
		t.Fatalf("MineContext: %v", err)
	}
	if got := tr.Counter("coloc.prepared"); got != int64(res.Instances) || got != 62 {
		t.Fatalf("coloc.prepared = %d with a polygon layer, want all %d instances", got, res.Instances)
	}
}

// TestConfigValidate sweeps the rejection surface.
func TestConfigValidate(t *testing.T) {
	bad := []colocation.Config{
		{Distance: -1, MinPI: 0.5},
		{Distance: math.NaN(), MinPI: 0.5},
		{Distance: math.Inf(1), MinPI: 0.5},
		{Distance: 1, MinPI: 0},
		{Distance: 1, MinPI: -0.1},
		{Distance: 1, MinPI: 1.01},
		{Distance: 1, MinPI: math.NaN()},
		{Distance: 1, MinPI: 0.5, MaxSize: -1},
		{Distance: 1, MinPI: 0.5, TopK: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", cfg)
		}
	}
	for _, good := range []colocation.Config{
		{Distance: 0, MinPI: 1},
		{Distance: 1, MinPI: 0.5, TopK: 3},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", good, err)
		}
	}
}

// TestParseConfig: strictness of the wire decoding POST /v1/colocate
// applies to a config.
func TestParseConfig(t *testing.T) {
	cfg, err := decodeConfig([]byte(`{"distance":2,"minPI":0.4,"maxSize":3,"topK":5}`))
	if err != nil {
		t.Fatalf("decodeConfig: %v", err)
	}
	if cfg.Distance != 2 || cfg.MinPI != 0.4 || cfg.MaxSize != 3 || cfg.TopK != 5 {
		t.Fatalf("cfg = %+v", cfg)
	}
	// The pool width is not a config member: every pool is GOMAXPROCS
	// wide, and a config that names a width is refused by name.
	if _, err := decodeConfig([]byte(`{"distance":2,"minPI":0.4,"parallelism":2}`)); err == nil || !strings.Contains(err.Error(), `"parallelism"`) {
		t.Errorf("decodeConfig with parallelism: err = %v, want an unknown field naming it", err)
	}
	for _, bad := range []string{
		``,
		`{`,
		`{"distance":1}`,                      // minPI missing -> 0, invalid
		`{"distance":1,"minPI":0.5,"nope":1}`, // unknown field
		`{"distance":1,"minPI":0.5} trailing`, // trailing data
		`{"distance":-2,"minPI":0.5}`,         // invalid bounds
		`{"distance":"far","minPI":0.5}`,      // wrong type
		`[{"distance":1,"minPI":0.5}]`,        // wrong shape
		`{"distance":1,"minPI":0.5,"engine":"joinless"}`, // removed field
		`{"distance":1,"minPI":0.5,"topK":-3}`,           // negative topK
	} {
		if _, err := decodeConfig([]byte(bad)); err == nil {
			t.Errorf("decodeConfig(%q) accepted", bad)
		}
	}
}
