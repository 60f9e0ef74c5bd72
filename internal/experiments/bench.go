package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/mining"
)

// BenchResult is one mining benchmark measurement in machine-readable
// form, written to BENCH_mining.json so the performance trajectory is
// tracked PR-over-PR.
type BenchResult struct {
	// Name identifies the workload: "<figure>/<algorithm>/minsup=<pct>".
	Name string `json:"name"`
	// N is the number of timed iterations the harness settled on.
	N int `json:"n"`
	// NsPerOp is wall time per full mining run.
	NsPerOp float64 `json:"nsPerOp"`
	// AllocsPerOp and BytesPerOp come from the allocation profile.
	AllocsPerOp int64 `json:"allocsPerOp"`
	BytesPerOp  int64 `json:"bytesPerOp"`
	// FrequentSets is the size>=2 frequent-itemset count (the Figure 4/6
	// series value), a correctness anchor for the timing row.
	FrequentSets int `json:"frequentSets"`
	// Passes carries one entry per mining pass from a representative run.
	Passes []BenchPass `json:"passes,omitempty"`
}

// BenchPass is one mining pass of a benchmarked run.
type BenchPass struct {
	K                 int   `json:"k"`
	Candidates        int   `json:"candidates"`
	PrunedDeps        int   `json:"prunedDeps,omitempty"`
	PrunedSameFeature int   `json:"prunedSameFeature,omitempty"`
	Frequent          int   `json:"frequent"`
	DurationMicros    int64 `json:"durationMicros"`
}

// benchAlgorithms are the engines the bench runner compares on the
// Figure 4-7 workloads.
var benchAlgorithms = []struct {
	name string
	fn   func(*itemset.DB, mining.Config) (*mining.Result, error)
	kc   bool // uses the KC+ config (Φ + same-feature filter)
}{
	{"apriori", mining.Apriori, false},
	{"apriori-kc+", mining.AprioriKCPlus, true},
	{"eclat-kc+", mining.Eclat, true},
}

// MiningBench measures the Figure 4/5 and Figure 6/7 mining workloads
// for every engine, reporting ns/op, allocs/op, and per-pass statistics.
// It uses the testing harness's benchmark driver, so numbers are
// directly comparable with `go test -bench` output.
func MiningBench() ([]BenchResult, error) {
	data1, err := datagen.PaperDataset1(datagen.DefaultSeed, datagen.DefaultRows)
	if err != nil {
		return nil, err
	}
	data2, err := datagen.PaperDataset2(datagen.DefaultSeed, datagen.DefaultRows)
	if err != nil {
		return nil, err
	}
	deps := dataset1Deps()
	var out []BenchResult
	for _, alg := range benchAlgorithms {
		for _, minsup := range []float64{0.05, 0.10, 0.15} {
			cfg := mining.Config{MinSupport: minsup}
			if alg.kc {
				cfg.Dependencies = deps
				cfg.FilterSameFeature = true
			}
			out = append(out, benchOne(nameFor("figure4-5", alg.name, minsup), data1, cfg, alg.fn))
		}
	}
	for _, alg := range benchAlgorithms {
		for _, minsup := range []float64{0.05, 0.17} {
			cfg := mining.Config{MinSupport: minsup}
			if alg.kc {
				cfg.FilterSameFeature = true
			}
			out = append(out, benchOne(nameFor("figure6-7", alg.name, minsup), data2, cfg, alg.fn))
		}
	}
	scaling, err := eclatScalingBench()
	if err != nil {
		return nil, err
	}
	return append(out, scaling...), nil
}

// eclatScalingBench measures the sharded Eclat walk across worker
// counts on a large generated dataset — the Parallelism scaling series
// of BENCH_mining.json. The frequentSets anchor is identical at every
// worker count (the walk is deterministic); wall-clock gains track the
// host's core count, so single-core CI records flat rows.
func eclatScalingBench() ([]BenchResult, error) {
	const scalingRows = 8000
	table, err := datagen.PaperDataset1(datagen.DefaultSeed, scalingRows)
	if err != nil {
		return nil, err
	}
	deps := dataset1Deps()
	var out []BenchResult
	for _, par := range []int{1, 2, 4, 8} {
		cfg := mining.Config{
			MinSupport:        0.03,
			Dependencies:      deps,
			FilterSameFeature: true,
			Parallelism:       par,
		}
		name := fmt.Sprintf("scaling-rows=%d/eclat-kc+/par=%d", scalingRows, par)
		out = append(out, benchOne(name, table, cfg, mining.Eclat))
	}
	return out, nil
}

func nameFor(figure, alg string, minsup float64) string {
	return fmt.Sprintf("%s/%s/minsup=%.0f%%", figure, alg, minsup*100)
}

// benchOne runs one workload under testing.Benchmark with allocation
// reporting and captures a representative run's pass statistics.
func benchOne(name string, table *dataset.Table, cfg mining.Config,
	alg func(*itemset.DB, mining.Config) (*mining.Result, error)) BenchResult {
	db := itemset.NewDB(table)
	db.BuildTidsets()
	rep, err := alg(db, cfg)
	if err != nil {
		panic(err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := alg(db, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	res := BenchResult{
		Name:         name,
		N:            r.N,
		NsPerOp:      float64(r.NsPerOp()),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		FrequentSets: rep.NumFrequent(2),
	}
	for _, p := range rep.Stats {
		res.Passes = append(res.Passes, BenchPass{
			K:                 p.K,
			Candidates:        p.Candidates,
			PrunedDeps:        p.PrunedDeps,
			PrunedSameFeature: p.PrunedSameFeature,
			Frequent:          p.Frequent,
			DurationMicros:    p.Duration.Microseconds(),
		})
	}
	return res
}

// WriteMiningBenchJSON runs MiningBench and writes the results as an
// indented JSON array — the BENCH_mining.json emitter behind
// `cmd/experiments -bench-json`.
func WriteMiningBenchJSON(w io.Writer) error {
	results, err := MiningBench()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
