package dataset_test

import (
	"bytes"
	"fmt"
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

// BenchmarkReadTableCSVChunks parses prefixes of the cli-table body as
// one chunk and as two. Two chunks on two cores win by about 30 % from
// 128 KiB in all; tableParseChunk is set from this.
func BenchmarkReadTableCSVChunks(b *testing.B) {
	full := benchTableCSV(b)
	for _, size := range []int{32 << 10, 64 << 10, 128 << 10, 256 << 10, len(full)} {
		body := string(full[:size])
		for _, chunks := range []int{1, 2} {
			b.Run(fmt.Sprintf("bytes=%d/chunks=%d", size, chunks), func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if benchTable, err = dataset.ParseTableCSVChunks(body, chunks); err != nil {
						b.Fatal(err)
					}
				}
			})
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
