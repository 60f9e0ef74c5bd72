package transact

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/qsr"
)

// transformed returns a copy of d with every geometry mapped by a.
func transformed(d *dataset.Dataset, a geom.Affine) *dataset.Dataset {
	layer := func(l *dataset.Layer) *dataset.Layer {
		out := &dataset.Layer{Type: l.Type, Features: slices.Clone(l.Features)}
		for i := range out.Features {
			out.Features[i].Geometry = geom.Transform(out.Features[i].Geometry, a)
		}
		return out
	}
	nd := &dataset.Dataset{Reference: layer(d.Reference), NonSpatialAttrs: d.NonSpatialAttrs}
	for _, l := range d.Relevant {
		nd.Relevant = append(nd.Relevant, layer(l))
	}
	return nd
}

// swapped returns t with every item of relation a renamed to relation b
// and every item of b to a, each row normalised again.
func swapped(t *dataset.Table, a, b qsr.Relation) *dataset.Table {
	pa, pb := a.String()+"_", b.String()+"_"
	rows := make([]dataset.Transaction, len(t.Transactions))
	for i, tx := range t.Transactions {
		items := make([]string, len(tx.Items))
		for k, it := range tx.Items {
			if rest, ok := strings.CutPrefix(it, pa); ok {
				it = pb + rest
			} else if rest, ok := strings.CutPrefix(it, pb); ok {
				it = pa + rest
			}
			items[k] = it
		}
		rows[i] = dataset.Transaction{RefID: tx.RefID, Items: items}
	}
	return dataset.NewTable(rows)
}

// TestExtractionMetamorphic checks four properties of extraction on
// twelve 12×12 default scenes (seeds 1–6, rectangular and irregular
// polygons) with topological, distance (farFrom included) and
// directional predicates, at parallelism 1 and 4:
//
//   - mirroring every geometry in y gives the same table with northOf
//     and southOf swapped;
//   - mirroring every geometry in x gives the same table with eastOf
//     and westOf swapped;
//   - scaling by 2, 1/2 and 4, with both distance thresholds scaled
//     alike, gives the same table;
//   - translating by ±2^10 on both axes gives the same table.
func TestExtractionMetamorphic(t *testing.T) {
	thresholds := qsr.DefaultThresholds(10)
	for seed := int64(1); seed <= 6; seed++ {
		for _, irregular := range []bool{false, true} {
			cfg := datagen.DefaultScene(12, 12, seed)
			cfg.IrregularPolygons = irregular
			d, err := datagen.GenerateScene(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, parallelism := range []int{1, 4} {
				opts := Options{
					Topological: true, Distance: true, Thresholds: thresholds, IncludeFarFrom: true,
					Directional: true, Index: RTreeIndex, Parallelism: parallelism,
				}
				label := fmt.Sprintf("seed %d, irregular %v, parallelism %d", seed, irregular, parallelism)
				want, err := Extract(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				extract := func(a geom.Affine, o Options) *dataset.Table {
					t.Helper()
					got, err := Extract(transformed(d, a), o)
					if err != nil {
						t.Fatal(err)
					}
					return got
				}

				if got := extract(geom.ScaleAffine(1, -1), opts); !reflect.DeepEqual(got, swapped(want, qsr.NorthOf, qsr.SouthOf)) {
					t.Errorf("%s: mirrored in y, the table is not the original with northOf and southOf swapped", label)
				}
				if got := extract(geom.ScaleAffine(-1, 1), opts); !reflect.DeepEqual(got, swapped(want, qsr.EastOf, qsr.WestOf)) {
					t.Errorf("%s: mirrored in x, the table is not the original with eastOf and westOf swapped", label)
				}
				for _, k := range []float64{2, 0.5, 4} {
					scaled := opts
					scaled.Thresholds = qsr.DistanceThresholds{VeryCloseMax: k * thresholds.VeryCloseMax, CloseMax: k * thresholds.CloseMax}
					if got := extract(geom.ScaleAffine(k, k), scaled); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: scaled by %v, the table changed", label, k)
					}
				}
				for _, off := range []float64{1 << 10, -(1 << 10)} {
					if got := extract(geom.TranslateAffine(off, off), opts); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: translated by %v, the table changed", label, off)
					}
				}
			}
		}
	}
}
