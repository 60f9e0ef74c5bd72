package transact

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/qsr"
)

// benchScene generates the benchmark scene outside the timed region so
// every iteration measures extraction, not generation.
func benchScene(b *testing.B, grid int) *dataset.Dataset {
	b.Helper()
	d, err := datagen.GenerateScene(datagen.DefaultScene(grid, grid, 1))
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkExtractScenePrepared measures full-table extraction with the
// prepared-geometry refine path (the default); its Unprepared sibling is
// the before-number of the filter-and-refine rework.
func BenchmarkExtractScenePrepared(b *testing.B) {
	benchmarkExtractScene(b, false)
}

func BenchmarkExtractSceneUnprepared(b *testing.B) {
	benchmarkExtractScene(b, true)
}

func benchmarkExtractScene(b *testing.B, noPrepare bool) {
	d := benchScene(b, 10)
	opts := DefaultOptions()
	opts.Distance = true
	opts.Thresholds = qsr.DefaultThresholds(10)
	opts.NoPrepare = noPrepare
	rows := d.Reference.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := Extract(d, opts)
		if err != nil {
			b.Fatal(err)
		}
		if table.Len() != rows {
			b.Fatal(fmt.Errorf("extracted %d rows, want %d", table.Len(), rows))
		}
	}
}

// BenchmarkStateDB builds the mining database of a State for each of the
// four 28×28 scenes of the cli-scene benchmark at seed 2007, under its
// options, in turn: "rows" from the State's indexed rows
// (itemset.NewDBIndexed), as core.RunStateContext does, "rows+table"
// that plus the rendered table, as core.RunContext does, and "table" by
// interning the rendered table's strings (itemset.NewDB), the path of
// ExtractContext callers.
func BenchmarkStateDB(b *testing.B) {
	opts := Options{Topological: true, Distance: true, Thresholds: qsr.DefaultThresholds(10), Index: RTreeIndex}
	states := make([]*State, 4)
	for k := range states {
		d, err := datagen.GenerateScene(datagen.DefaultScene(28, 28, 2007*4+int64(k)))
		if err != nil {
			b.Fatal(err)
		}
		if states[k], err = NewState(d, opts); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name  string
		build func(st *State) *itemset.DB
	}{
		{"rows", func(st *State) *itemset.DB { return itemset.NewDBIndexed(st.Rows()) }},
		{"rows+table", func(st *State) *itemset.DB { st.Table(); return itemset.NewDBIndexed(st.Rows()) }},
		{"table", func(st *State) *itemset.DB { return itemset.NewDB(st.Table()) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchDB = bc.build(states[i%len(states)])
			}
		})
	}
}

// benchDB keeps the benchmarked database alive.
var benchDB *itemset.DB

// BenchmarkStateInstance measures instance granularity, where nearly
// every predicate is a name of its own (about 10,000 on the first 28×28
// cli-scene scene of seed 2007, under its options at Parallelism 2):
// "build" is NewStateContext plus Table, and "insert" one Apply that
// inserts a relevant feature under a fresh ID beside a reference row and
// deletes the one the Apply before inserted, so that every Apply adds
// new names to the vocabulary.
func BenchmarkStateInstance(b *testing.B) {
	d, err := datagen.GenerateScene(datagen.DefaultScene(28, 28, 2007*4))
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Topological: true, Distance: true, Thresholds: qsr.DefaultThresholds(10), Index: RTreeIndex, Granularity: InstanceLevel, Parallelism: 2}
	ctx := context.Background()
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := NewStateContext(ctx, d, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchTable = st.Table()
		}
	})
	b.Run("insert", func(b *testing.B) {
		st, err := NewStateContext(ctx, d, opts)
		if err != nil {
			b.Fatal(err)
		}
		cur, env, layer := d, d.Reference.Features[d.Reference.Len()/2].Geometry.Envelope(), d.Relevant[0].Type
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			x, y := env.MinX+float64(i%7)*0.3, env.MinY+float64(i%5)*0.3
			ops := []dataset.Op{{Action: dataset.OpInsert, Layer: layer, ID: fmt.Sprintf("bench%d", i), WKT: rectWKT(x, y, x+2, y+2)}}
			if i > 0 {
				ops = append(ops, dataset.Op{Action: dataset.OpDelete, Layer: layer, ID: fmt.Sprintf("bench%d", i-1)})
			}
			nd, cs, err := cur.ApplyOps(ops)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := st.Apply(ctx, nd, cs); err != nil {
				b.Fatal(err)
			}
			cur = nd
		}
	})
}

// benchTable keeps the benchmarked table alive.
var benchTable *dataset.Table
