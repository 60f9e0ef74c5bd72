package itemset

import (
	"testing"

	"repro/internal/datagen"
)

// BenchmarkNewDB interns the cli-table benchmark input: paper Dataset 1
// at 20,000 rows, seed 2007.
func BenchmarkNewDB(b *testing.B) {
	t, err := datagen.PaperDataset1(2007, 20000)
	if err != nil {
		b.Fatal(err)
	}
	items := 0
	for _, tx := range t.Transactions {
		items += len(tx.Items)
	}
	b.ReportMetric(float64(items), "items/op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDB = NewDB(t)
	}
}

// benchDB keeps the benchmarked result alive.
var benchDB *DB
