package qsrmine_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	qsrmine "repro"
	"repro/internal/datagen"
	"repro/internal/qsr"
	"repro/internal/transact"
)

// The incremental-pipeline property: replaying any sequence of random
// scene mutations through an evolving ExtractState and mining the
// patched tables gives exactly the result of rebuilding and mining the
// mutated scene from scratch. Exercised across extraction families
// (topological; topological+distance; directional, whose predicates
// have no local dirty region and force full refits), at extraction
// Parallelism and GOMAXPROCS (the mining width) both 1 and both 4, so
// the race detector sees both the sequential and the sharded paths.

func TestIncrementalPipelineMatchesFromScratchSequential(t *testing.T) {
	runIncrementalProperty(t, 1, 101)
}

func TestIncrementalPipelineMatchesFromScratchParallel(t *testing.T) {
	runIncrementalProperty(t, 4, 202)
}

func runIncrementalProperty(t *testing.T, parallelism int, seed int64) {
	families := map[string]qsrmine.ExtractOptions{
		"topo":      qsrmine.DefaultExtractOptions(),
		"topo+dist": {Topological: true, Distance: true, Thresholds: qsr.DefaultThresholds(8), IncludeFarFrom: true, Index: qsrmine.DefaultExtractOptions().Index},
		"dir":       {Directional: true, Index: qsrmine.DefaultExtractOptions().Index},
	}
	for name, opts := range families {
		opts := opts
		opts.Parallelism = parallelism
		t.Run(name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(parallelism))
			rng := rand.New(rand.NewSource(seed))
			d, err := datagen.GenerateScene(datagen.DefaultScene(6, 5, seed))
			if err != nil {
				t.Fatal(err)
			}
			cfg := qsrmine.Config{
				Algorithm:  qsrmine.EclatKCPlus,
				MinSupport: 0.25,
				Extraction: opts,
			}
			st, err := transact.NewState(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for step := 0; step < 5; step++ {
				ops := randomOps(rng, d, 1+rng.Intn(4), fmt.Sprintf("s%d", step))
				nd, cs, err := d.ApplyOps(ops)
				if err != nil {
					t.Fatalf("step %d: ApplyOps: %v", step, err)
				}
				if _, err := st.Apply(ctx, nd, cs); err != nil {
					t.Fatalf("step %d: Apply: %v", step, err)
				}
				got, err := qsrmine.RunTableContext(ctx, st.Table(), cfg)
				if err != nil {
					t.Fatalf("step %d: mining patched table: %v", step, err)
				}
				want, err := qsrmine.RunContext(ctx, nd, cfg)
				if err != nil {
					t.Fatalf("step %d: from-scratch oracle: %v", step, err)
				}
				assertOutcomesEqual(t, got, want, step)
				d = nd
			}
		})
	}
}

// assertOutcomesEqual compares two pipeline outcomes on substance:
// table rows, then frequent itemsets by formatted item names and
// support (names, not raw IDs, so dictionary interning order cannot
// mask or fake a diff).
func assertOutcomesEqual(t *testing.T, got, want *qsrmine.Outcome, step int) {
	t.Helper()
	if got.Table.Len() != want.Table.Len() {
		t.Fatalf("step %d: %d rows vs %d", step, got.Table.Len(), want.Table.Len())
	}
	for i := range want.Table.Transactions {
		g, w := got.Table.Transactions[i], want.Table.Transactions[i]
		if g.RefID != w.RefID || fmt.Sprint(g.Items) != fmt.Sprint(w.Items) {
			t.Fatalf("step %d: row %d diverged:\ndelta %s %v\nfresh %s %v", step, i, g.RefID, g.Items, w.RefID, w.Items)
		}
	}
	gr, wr := got.Result, want.Result
	if gr.NumTransactions != wr.NumTransactions || gr.MinSupportCount != wr.MinSupportCount {
		t.Fatalf("step %d: headline mismatch: %d/%d vs %d/%d",
			step, gr.NumTransactions, gr.MinSupportCount, wr.NumTransactions, wr.MinSupportCount)
	}
	if len(gr.Frequent) != len(wr.Frequent) {
		t.Fatalf("step %d: %d frequent itemsets vs %d", step, len(gr.Frequent), len(wr.Frequent))
	}
	for i := range wr.Frequent {
		g, w := gr.Frequent[i], wr.Frequent[i]
		gn, wn := g.Items.Format(got.DB.Dict), w.Items.Format(want.DB.Dict)
		if gn != wn || g.Support != w.Support {
			t.Fatalf("step %d: itemset %d: %s(%d) vs %s(%d)", step, i, gn, g.Support, wn, w.Support)
		}
	}
}

// randomOps builds a valid mutation batch over the scene using every
// op kind and every geometry family (polygons, lines, points). tag
// keeps insert IDs unique across batches.
func randomOps(rng *rand.Rand, d *qsrmine.Dataset, nOps int, tag string) []qsrmine.Op {
	var ops []qsrmine.Op
	touched := map[string]bool{}
	inserted := 0
	for len(ops) < nOps {
		var layer *qsrmine.Layer
		if rng.Float64() < 0.2 {
			layer = d.Reference
		} else {
			layer = d.Relevant[rng.Intn(len(d.Relevant))]
		}
		if layer.Len() == 0 {
			continue
		}
		f := layer.Features[rng.Intn(layer.Len())]
		key := layer.Type + "/" + f.ID
		switch rng.Intn(4) {
		case 3: // attribute update on a reference district: a numeric
			// value shifts (or first creates) the crimeRate column's
			// fitted discretizer cuts, so surviving rows re-render
			rf := d.Reference.Features[rng.Intn(d.Reference.Len())]
			rkey := d.Reference.Type + "/" + rf.ID
			if touched[rkey] {
				continue
			}
			ops = append(ops, qsrmine.Op{
				Action: qsrmine.OpUpdate, Layer: d.Reference.Type, ID: rf.ID,
				Attrs: map[string]qsrmine.Value{"crimeRate": rng.Float64() * 100},
			})
		case 0: // geometry update, possibly switching family
			if touched[key] {
				continue
			}
			touched[key] = true
			env := f.Geometry.Envelope()
			ops = append(ops, qsrmine.Op{
				Action: qsrmine.OpUpdate, Layer: layer.Type, ID: f.ID,
				WKT: randomWKT(rng, env.MinX+(rng.Float64()-0.5)*3, env.MinY+(rng.Float64()-0.5)*3),
			})
		case 1: // insert
			id := fmt.Sprintf("ins_%s_%s_%d", tag, layer.Type, inserted)
			inserted++
			ops = append(ops, qsrmine.Op{
				Action: qsrmine.OpInsert, Layer: layer.Type, ID: id,
				WKT: randomWKT(rng, rng.Float64()*40, rng.Float64()*30),
			})
		default: // delete, keeping the reference layer populated
			if touched[key] || (layer == d.Reference && layer.Len() < 4) {
				continue
			}
			touched[key] = true
			ops = append(ops, qsrmine.Op{Action: qsrmine.OpDelete, Layer: layer.Type, ID: f.ID})
		}
	}
	return ops
}

// randomWKT emits a polygon, line, or point anchored at (x, y).
func randomWKT(rng *rand.Rand, x, y float64) string {
	switch rng.Intn(3) {
	case 0:
		w, h := 0.5+rng.Float64()*3, 0.5+rng.Float64()*3
		return fmt.Sprintf("POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))",
			x, y, x+w, y, x+w, y+h, x, y+h, x, y)
	case 1:
		return fmt.Sprintf("LINESTRING (%g %g, %g %g, %g %g)",
			x, y, x+1+rng.Float64()*3, y+rng.Float64()*2, x+2+rng.Float64()*4, y+1+rng.Float64()*2)
	default:
		return fmt.Sprintf("POINT (%g %g)", x, y)
	}
}
