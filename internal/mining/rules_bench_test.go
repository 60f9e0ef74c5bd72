package mining

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/itemset"
)

// BenchmarkGenerateRules derives the cli-table benchmark's rules: paper
// Dataset 1 at 20,000 rows, seed 2007, mined by Apriori-KC+ with its Φ
// at 1 % support, rules at 70 % confidence. Every iteration starts from
// a fresh Result, so the support index is built as in a pipeline run.
func BenchmarkGenerateRules(b *testing.B) {
	t, err := datagen.PaperDataset1(2007, 20000)
	if err != nil {
		b.Fatal(err)
	}
	deps := make([]Pair, len(datagen.Dataset1Dependencies))
	for i, p := range datagen.Dataset1Dependencies {
		deps[i] = Pair{A: p.A, B: p.B}
	}
	res, err := AprioriKCPlus(itemset.NewDB(t), Config{MinSupport: 0.01, Dependencies: deps})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(GenerateRules(res, 0.7))), "rules/op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRules = GenerateRules(&Result{Frequent: res.Frequent, NumTransactions: res.NumTransactions}, 0.7)
	}
}

// benchRules keeps the benchmarked result alive.
var benchRules []Rule
