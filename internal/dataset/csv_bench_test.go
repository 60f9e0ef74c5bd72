package dataset_test

import (
	"bytes"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// benchTableCSV is the cli-table benchmark input: paper Dataset 1 at
// 20,000 rows, seed 2007, as WriteTableCSV writes it (about 1.9 MB).
func benchTableCSV(b *testing.B) []byte {
	b.Helper()
	t, err := datagen.PaperDataset1(2007, 20000)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := t.WriteTableCSV(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkReadTableCSV(b *testing.B) {
	body := benchTableCSV(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchTable, err = dataset.ReadTableCSV(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTable keeps the benchmarked result alive.
var benchTable *dataset.Table

func BenchmarkWriteTableCSV(b *testing.B) {
	body := benchTableCSV(b)
	t, err := dataset.ReadTableCSV(bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := t.WriteTableCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
