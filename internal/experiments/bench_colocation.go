package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/colocation"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// ColocationBenchResult is one co-location mining measurement, written
// to BENCH_colocation.json. The grid sweeps scene shape × worker
// fan-out, so the perf gate tracks the parallel CSR neighbor
// materialization, the star-neighborhood prune, and the prevalence
// walk separately from the transaction engines.
type ColocationBenchResult struct {
	// Name identifies the workload:
	// "colocation/scene=<s>/dist=<d>/minpi=<p>/par=<w>".
	Name string `json:"name"`
	// N is the number of timed iterations the harness settled on.
	N int `json:"n"`
	// NsPerOp is wall time per full co-location run.
	NsPerOp float64 `json:"nsPerOp"`
	// AllocsPerOp and BytesPerOp come from the allocation profile.
	AllocsPerOp int64 `json:"allocsPerOp"`
	BytesPerOp  int64 `json:"bytesPerOp"`
	// Instances is the scene's total instance count.
	Instances int `json:"instances"`
	// Prevalent is the prevalent-pattern count — the correctness anchor
	// for the timing row.
	Prevalent int `json:"prevalent"`
	// RefinedPairs is the materialized neighbor-pair count.
	RefinedPairs int64 `json:"refinedPairs"`
	// StarPruned counts candidates the star upper bound discarded — how
	// much work the prune actually saved.
	StarPruned int `json:"starPruned,omitempty"`
}

// colocationBenchScene is one benchmark scene: a generator config plus
// the distance/minPI the grid mines it at.
type colocationBenchScene struct {
	name  string
	gen   datagen.ColocationSceneConfig
	dist  float64
	minPI float64
}

// colocationBenchScenes is the committed workload grid. "base" and
// "large" carry over PR 9's lattice scenes for continuity; "clutter"
// (small extent, heavy noise — many refined pairs, dense neighbor
// lists) and "cliques" (hot sites holding 8 instances per type —
// multiplicative row-instance tables) are the dense scenes where
// candidate evaluation dominates. The cliques scene is shaped so every
// type pair is prevalent but the triple is not: the star bound rules
// the triple out from the CSR offsets alone, without materializing its
// 8³-rows-per-site table.
func colocationBenchScenes() []colocationBenchScene {
	base := datagen.DefaultColocationScene(datagen.DefaultSeed)
	base.Clusters, base.Noise = 40, 20
	large := datagen.DefaultColocationScene(datagen.DefaultSeed)
	large.Clusters, large.Noise = 160, 80
	rep := func(name string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = name
		}
		return out
	}
	hot := func(types ...string) []string {
		var out []string
		for _, t := range types {
			out = append(out, rep(t, 8)...)
		}
		return out
	}
	return []colocationBenchScene{
		{name: "base", gen: base, dist: 1, minPI: 0.2},
		{name: "large", gen: large, dist: 4, minPI: 0.2},
		{name: "clutter", gen: datagen.ColocationSceneConfig{
			Seed: datagen.DefaultSeed, Types: []string{"a", "b", "c", "d", "e"},
			Extent: 14, Clusters: 10, ClusterSpread: 0.5, Noise: 140,
		}, dist: 1, minPI: 0.2},
		{name: "cliques", gen: datagen.ColocationSceneConfig{
			Seed: datagen.DefaultSeed, Types: []string{"a", "b", "c"},
			Extent: 120, Clusters: 16, ClusterSpread: 0.4,
			Planted: [][]string{
				hot("a", "b"), hot("b", "c"), hot("a", "c"), hot("a", "b", "c"),
			},
			Noise: 4,
		}, dist: 1, minPI: 0.5},
	}
}

// ColocationBench measures the co-location engine over the scene grid.
// Scenes are generated once, outside the timed region.
func ColocationBench() ([]ColocationBenchResult, error) {
	var out []ColocationBenchResult
	for _, sc := range colocationBenchScenes() {
		ds, err := datagen.GenerateColocationScene(sc.gen)
		if err != nil {
			return nil, err
		}
		for _, par := range []int{1, 4} {
			mcfg := colocation.Config{Distance: sc.dist, MinPI: sc.minPI, Parallelism: par}
			res, err := benchColocationOne(ds, mcfg, sc.name)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// benchColocationOne times one configuration under testing.Benchmark.
func benchColocationOne(ds *dataset.Dataset, cfg colocation.Config, scene string) (ColocationBenchResult, error) {
	// One untimed run supplies the correctness anchors (and surfaces
	// config errors before the timing loop hides them).
	ref, err := colocation.Mine(ds, cfg)
	if err != nil {
		return ColocationBenchResult{}, err
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := colocation.Mine(ds, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	return ColocationBenchResult{
		Name: fmt.Sprintf("colocation/scene=%s/dist=%v/minpi=%v/par=%d",
			scene, cfg.Distance, cfg.MinPI, cfg.Parallelism),
		N:            r.N,
		NsPerOp:      float64(r.NsPerOp()),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		Instances:    ref.Instances,
		Prevalent:    len(ref.Prevalent),
		RefinedPairs: ref.RefinedPairs,
		StarPruned:   ref.StarPruned,
	}, nil
}

// WriteColocationBenchJSON runs ColocationBench and writes the results
// as indented JSON — the BENCH_colocation.json format the perf gate
// diffs.
func WriteColocationBenchJSON(w io.Writer) error {
	results, err := ColocationBench()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
