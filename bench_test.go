// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablation benches called out in DESIGN.md §5.
//
// Naming maps to the paper:
//
//	BenchmarkTable2*   — mining the Table 2 data at 50% support
//	BenchmarkTable3*   — the analytic gain grid
//	BenchmarkFigure3*  — the gain surface
//	BenchmarkFigure4And5* — dataset 1, three algorithms, minsup sweep
//	                        (Figure 4 counts are reported as bench
//	                        metrics; Figure 5 is the ns/op itself)
//	BenchmarkFigure6And7* — dataset 2, two algorithms, minsup sweep
//	BenchmarkFilterPlacement* — apriori (k=2) vs aposteriori filtering
//	BenchmarkJoin*        — R-tree vs nested-loop extraction
//	BenchmarkSensitivity* — gain vs number of same-feature relations
package qsrmine_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/gain"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/transact"
)

// Lazily built shared inputs, outside all timing loops.
var (
	benchOnce  sync.Once
	benchData1 *dataset.Table
	benchData2 *dataset.Table
	benchDeps  []mining.Pair
	benchScene *dataset.Dataset
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchData1, err = datagen.PaperDataset1(datagen.DefaultSeed, datagen.DefaultRows)
		if err != nil {
			panic(err)
		}
		benchData2, err = datagen.PaperDataset2(datagen.DefaultSeed, datagen.DefaultRows)
		if err != nil {
			panic(err)
		}
		for _, d := range datagen.Dataset1Dependencies {
			benchDeps = append(benchDeps, mining.Pair{A: d.A, B: d.B})
		}
		benchScene, err = datagen.GenerateScene(datagen.DefaultScene(12, 12, 7))
		if err != nil {
			panic(err)
		}
	})
}

// mineBench runs one algorithm repeatedly and reports the frequent-set
// count as a bench metric (the Figure 4/6 series).
func mineBench(b *testing.B, table *dataset.Table, cfg mining.Config,
	alg func(*itemset.DB, mining.Config) (*mining.Result, error)) {
	b.Helper()
	db := itemset.NewDB(table)
	db.BuildTidsets()
	var frequent int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := alg(db, cfg)
		if err != nil {
			b.Fatal(err)
		}
		frequent = res.NumFrequent(2)
	}
	b.ReportMetric(float64(frequent), "frequent-sets")
}

// BenchmarkTable2Apriori mines the Table 2 reconstruction with the
// baseline (the workload behind Table 2 itself).
func BenchmarkTable2Apriori(b *testing.B) {
	mineBench(b, dataset.Table2Reconstruction(), mining.Config{MinSupport: 0.5}, mining.Apriori)
}

// BenchmarkTable2KCPlus mines the same data with the paper's algorithm.
func BenchmarkTable2KCPlus(b *testing.B) {
	mineBench(b, dataset.Table2Reconstruction(), mining.Config{MinSupport: 0.5}, mining.AprioriKCPlus)
}

// BenchmarkTable3Gain regenerates the full Table 3 grid.
func BenchmarkTable3Gain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := gain.Table3(); got[9][6] != 252928 {
			b.Fatal("table 3 corner value wrong")
		}
	}
}

// BenchmarkFigure3Surface regenerates the Figure 3 gain surface.
func BenchmarkFigure3Surface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := gain.Surface(8, 10)
		if err != nil || len(pts) != 80 {
			b.Fatal("surface wrong")
		}
	}
}

// BenchmarkFigure4And5 sweeps dataset 1 with the three algorithms: the
// reported frequent-sets metric regenerates Figure 4, and ns/op is the
// Figure 5 timing series.
func BenchmarkFigure4And5(b *testing.B) {
	benchSetup(b)
	algs := []struct {
		name string
		fn   func(*itemset.DB, mining.Config) (*mining.Result, error)
	}{
		{"Apriori", mining.Apriori},
		{"KC", mining.AprioriKC},
		{"KCPlus", mining.AprioriKCPlus},
	}
	for _, alg := range algs {
		for _, ms := range []float64{0.05, 0.10, 0.15} {
			b.Run(fmt.Sprintf("%s/minsup=%.0f%%", alg.name, ms*100), func(b *testing.B) {
				mineBench(b, benchData1, mining.Config{MinSupport: ms, Dependencies: benchDeps}, alg.fn)
			})
		}
	}
}

// BenchmarkFigure6And7 sweeps dataset 2 with Apriori and KC+: the
// frequent-sets metric regenerates Figure 6, ns/op is Figure 7.
func BenchmarkFigure6And7(b *testing.B) {
	benchSetup(b)
	algs := []struct {
		name string
		fn   func(*itemset.DB, mining.Config) (*mining.Result, error)
	}{
		{"Apriori", mining.Apriori},
		{"KCPlus", mining.AprioriKCPlus},
	}
	for _, alg := range algs {
		for _, ms := range []float64{0.05, 0.08, 0.11, 0.14, 0.17} {
			b.Run(fmt.Sprintf("%s/minsup=%.0f%%", alg.name, ms*100), func(b *testing.B) {
				mineBench(b, benchData2, mining.Config{MinSupport: ms}, alg.fn)
			})
		}
	}
}

// BenchmarkTable1Extraction measures the geometric pipeline behind
// Table 1: scene -> DE-9IM relate -> transactions.
func BenchmarkTable1Extraction(b *testing.B) {
	scene := dataset.PortoAlegreScene()
	for i := 0; i < b.N; i++ {
		if _, err := transact.Extract(scene, transact.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterPlacement compares the paper's apriori (k=2) filter
// placement against the aposteriori placement (DESIGN.md ablation 2):
// the aposteriori variant pays for mining the full lattice first.
func BenchmarkFilterPlacement(b *testing.B) {
	benchSetup(b)
	b.Run("AprioriPlacement", func(b *testing.B) {
		db := itemset.NewDB(benchData1)
		db.BuildTidsets()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mining.AprioriKCPlus(db, mining.Config{MinSupport: 0.05}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AposterioriPlacement", func(b *testing.B) {
		db := itemset.NewDB(benchData1)
		db.BuildTidsets()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := mining.Apriori(db, mining.Config{MinSupport: 0.05})
			if err != nil {
				b.Fatal(err)
			}
			mining.FilterSameFeaturePost(res.Frequent, db.Dict)
		}
	})
}

// BenchmarkJoin compares the R-tree candidate filter with the nested
// loop during predicate extraction (DESIGN.md ablation 3).
func BenchmarkJoin(b *testing.B) {
	benchSetup(b)
	for _, idx := range []struct {
		name string
		kind transact.IndexKind
	}{
		{"RTree", transact.RTreeIndex},
		{"NestedLoop", transact.NoIndex},
	} {
		b.Run(idx.name, func(b *testing.B) {
			opts := transact.DefaultOptions()
			opts.Index = idx.kind
			for i := 0; i < b.N; i++ {
				if _, err := transact.Extract(benchScene, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSensitivitySamePairs quantifies the paper's closing remark
// ("the higher the number of ... meaningless combinations, the more
// efficient is Apriori-KC+") by mining vocabularies with increasing
// relations-per-feature-type (DESIGN.md ablation 4).
func BenchmarkSensitivitySamePairs(b *testing.B) {
	for _, rels := range []int{1, 2, 3, 4} {
		table := sensitivityTable(b, rels)
		b.Run(fmt.Sprintf("relationsPerType=%d", rels), func(b *testing.B) {
			mineBench(b, table, mining.Config{MinSupport: 0.10}, mining.AprioriKCPlus)
		})
	}
}

// sensitivityTable builds a synthetic table with 4 feature types and the
// given number of co-occurring relations per type.
func sensitivityTable(tb testing.TB, relationsPerType int) *dataset.Table {
	tb.Helper()
	relations := []string{"contains", "touches", "overlaps", "covers"}
	var preds []string
	probs := map[string]float64{}
	for _, ft := range []string{"slum", "school", "river", "market"} {
		for r := 0; r < relationsPerType; r++ {
			p := relations[r] + "_" + ft
			preds = append(preds, p)
			probs[p] = 0.5
		}
	}
	table, err := datagen.Generate(datagen.TransactionConfig{
		Rows:       500,
		Seed:       13,
		Predicates: preds,
		BaseProb:   0.05,
		Profiles:   []datagen.Profile{{Weight: 1, Probs: probs}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return table
}

// BenchmarkExperimentTable2 measures the full Table 2 report generation,
// covering the experiments harness itself.
func BenchmarkExperimentTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r, ok := experiments.ByID("table2"); !ok || len(r.Lines) == 0 {
			b.Fatal("experiment failed")
		}
	}
}

// BenchmarkScalingRows measures how KC+ mining scales with the number of
// reference objects (transactions) on the dataset 1 vocabulary.
func BenchmarkScalingRows(b *testing.B) {
	for _, rows := range []int{500, 2000, 8000} {
		table, err := datagen.PaperDataset1(datagen.DefaultSeed, rows)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			mineBench(b, table, mining.Config{MinSupport: 0.10}, mining.AprioriKCPlus)
		})
	}
}

// BenchmarkEclatVsApriori contrasts the engines on the dense
// low-support end where vertical diffsets pay off.
func BenchmarkEclatVsApriori(b *testing.B) {
	benchSetup(b)
	b.Run("Apriori", func(b *testing.B) {
		mineBench(b, benchData1, mining.Config{MinSupport: 0.03}, mining.Apriori)
	})
	b.Run("Eclat", func(b *testing.B) {
		mineBench(b, benchData1, mining.Config{MinSupport: 0.03}, mining.Eclat)
	})
}

// BenchmarkEclatParallelScaling measures the sharded equivalence-class
// walk on a large generated dataset at the widths -cpu sets (the walk's
// pool is GOMAXPROCS wide), e.g. -cpu 1,2,4,8. Each top-level subtree
// is independent, so on multi-core hardware wall time drops with the
// width; the frequent-sets metric pins output equivalence across all
// settings.
func BenchmarkEclatParallelScaling(b *testing.B) {
	table, err := datagen.PaperDataset1(datagen.DefaultSeed, 8000)
	if err != nil {
		b.Fatal(err)
	}
	mineBench(b, table, mining.Config{MinSupport: 0.03}, mining.Eclat)
}

// supportBenchCandidates builds the sorted, prefix-sharing k=3 candidate
// stream (the aprioriGen output shape) over dataset 1's frequent items.
func supportBenchCandidates(b *testing.B, db *itemset.DB) []itemset.Itemset {
	b.Helper()
	counts := db.ItemCounts()
	var items []int32
	for id, c := range counts {
		if c >= 25 && len(items) < 16 {
			items = append(items, int32(id))
		}
	}
	if len(items) < 4 {
		b.Fatal("not enough frequent items for the support benchmark")
	}
	var cands []itemset.Itemset
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			for k := j + 1; k < len(items); k++ {
				cands = append(cands, itemset.Itemset{items[i], items[j], items[k]})
			}
		}
	}
	return cands
}

// BenchmarkSupportVerticalPrefix counts a sorted candidate stream with
// the prefix-cached VerticalCounter: shared (k-1)-prefix intersections
// are reused and steady-state counting is allocation-free.
func BenchmarkSupportVerticalPrefix(b *testing.B) {
	benchSetup(b)
	db := itemset.NewDB(benchData1)
	db.BuildTidsets()
	cands := supportBenchCandidates(b, db)
	vc := db.NewVerticalCounter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			vc.Support(c)
		}
	}
	b.ReportMetric(float64(len(cands)), "candidates")
}
