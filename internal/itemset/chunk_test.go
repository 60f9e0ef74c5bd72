package itemset

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// chunkTables are NewDB inputs for the chunk-count tests: generated
// paper tables, and a hand-built table whose rows repeat items and
// whose later rows first see items no earlier row has.
func chunkTables(t testing.TB) map[string]*dataset.Table {
	tables := map[string]*dataset.Table{"empty": {}}
	for _, seed := range []int64{1, 7} {
		d1, err := datagen.PaperDataset1(seed, 500)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := datagen.PaperDataset2(seed, 300)
		if err != nil {
			t.Fatal(err)
		}
		tables[fmt.Sprintf("dataset1/seed=%d", seed)] = d1
		tables[fmt.Sprintf("dataset2/seed=%d", seed)] = d2
	}
	// Row i holds items the earlier rows never saw, in descending
	// order and repeated, beside one item every row shares; every
	// third row is bare. Raw rows, not NewTable's normalised ones.
	hand := &dataset.Table{}
	for i := range 40 {
		tx := dataset.Transaction{RefID: fmt.Sprintf("r%d", i)}
		if i%3 != 2 {
			for j := i % 4; j >= 0; j-- {
				item := fmt.Sprintf("contains_t%d", i*4+j)
				tx.Items = append(tx.Items, item, "shared=yes", item)
			}
		}
		hand.Transactions = append(hand.Transactions, tx)
	}
	tables["hand"] = hand
	return tables
}

// TestNewDBChunks requires every chunk count from 1 to 8 to intern
// every table as one chunk does, and one chunk to hand out IDs in
// first-seen order, row by row and item by item: the same dictionary
// names, metas and ID order, and the same rows, each capacity-capped.
func TestNewDBChunks(t *testing.T) {
	for name, tab := range chunkTables(t) {
		var firstSeen []string
		seen := map[string]bool{}
		for _, tx := range tab.Transactions {
			for _, it := range tx.Items {
				if !seen[it] {
					seen[it] = true
					firstSeen = append(firstSeen, it)
				}
			}
		}
		want := newDB(tab, 1)
		for chunks := 1; chunks <= 8; chunks++ {
			got := newDB(tab, chunks)
			if !reflect.DeepEqual(got.Dict.metas, want.Dict.metas) {
				t.Errorf("%s at %d chunks: dictionary %v, want %v", name, chunks, got.Dict.metas, want.Dict.metas)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("%s at %d chunks: rows differ", name, chunks)
			}
			for i, row := range got.Rows {
				if cap(row) != len(row) {
					t.Errorf("%s at %d chunks: row %d has cap %d, len %d", name, chunks, i, cap(row), len(row))
				}
			}
			for i, m := range got.Dict.metas {
				if m.Name != firstSeen[i] {
					t.Errorf("%s at %d chunks: ID %d is %q, want %q", name, chunks, i, m.Name, firstSeen[i])
					break
				}
				if id, ok := got.Dict.Lookup(m.Name); !ok || id != int32(i) {
					t.Errorf("%s at %d chunks: %q looks up as %d, %v; want %d", name, chunks, m.Name, id, ok, i)
				}
			}
			if got.Dict.Len() != len(firstSeen) {
				t.Errorf("%s at %d chunks: %d names, want %d", name, chunks, got.Dict.Len(), len(firstSeen))
			}
		}
	}
}

// BenchmarkNewDBChunks interns prefixes of the cli-table input as one
// chunk and as two. Two chunks on two cores win by about 30 % from
// 2,048 rows in all; internChunkRows is set from this.
func BenchmarkNewDBChunks(b *testing.B) {
	t, err := datagen.PaperDataset1(2007, 20000)
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{1024, 2048, 4096, 8192, 20000} {
		prefix := &dataset.Table{Transactions: t.Transactions[:rows]}
		for _, chunks := range []int{1, 2} {
			b.Run(fmt.Sprintf("rows=%d/chunks=%d", rows, chunks), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchDB = newDB(prefix, chunks)
				}
			})
		}
	}
}
