package transact

import (
	"fmt"
	"reflect"
	"slices"
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

// renamed returns t with every predicate whose relation is a key of to
// renamed to that relation, each row normalised again.
func renamed(t *dataset.Table, to map[qsr.Relation]qsr.Relation) *dataset.Table {
	rows := make([]dataset.Transaction, len(t.Transactions))
	for i, tx := range t.Transactions {
		items := make([]string, len(tx.Items))
		for k, it := range tx.Items {
			if p, err := qsr.ParsePredicate(it); err == nil {
				if r, ok := to[p.Relation]; ok {
					it = qsr.Predicate{Relation: r, FeatureType: p.FeatureType}.String()
				}
			}
			items[k] = it
		}
		rows[i] = dataset.Transaction{RefID: tx.RefID, Items: items}
	}
	return dataset.NewTable(rows)
}

// quarterTurn turns the plane a quarter counterclockwise about the
// origin, (x, y) -> (-y, x), exactly in floating point.
var quarterTurn = geom.Affine{XY: -1, YX: 1}

// TestExtractionMetamorphic checks five properties of extraction on
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
//   - translating by ±2^10 on both axes gives the same table;
//   - a quarter turn gives the same table with northOf, westOf, southOf
//     and eastOf each becoming the next. This holds because no centroid
//     pair of these scenes lies on a diagonal, where the dominant-axis
//     rule breaks the tie towards north or south
//     (TestQuarterTurnDiagonalTies).
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

				if got := extract(geom.ScaleAffine(1, -1), opts); !reflect.DeepEqual(got, renamed(want, map[qsr.Relation]qsr.Relation{qsr.NorthOf: qsr.SouthOf, qsr.SouthOf: qsr.NorthOf})) {
					t.Errorf("%s: mirrored in y, the table is not the original with northOf and southOf swapped", label)
				}
				if got := extract(geom.ScaleAffine(-1, 1), opts); !reflect.DeepEqual(got, renamed(want, map[qsr.Relation]qsr.Relation{qsr.EastOf: qsr.WestOf, qsr.WestOf: qsr.EastOf})) {
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
				cycle := map[qsr.Relation]qsr.Relation{
					qsr.NorthOf: qsr.WestOf, qsr.WestOf: qsr.SouthOf, qsr.SouthOf: qsr.EastOf, qsr.EastOf: qsr.NorthOf,
				}
				if got := extract(quarterTurn, opts); !reflect.DeepEqual(got, renamed(want, cycle)) {
					t.Errorf("%s: turned a quarter, the table is not the original with the directions cycled", label)
				}
			}
		}
	}
}

// TestQuarterTurnDiagonalTies pins the dominant-axis tie rule under a
// quarter turn. A feature whose centroid lies on a diagonal of the
// district's is northOf or southOf it by the sign of dy, and stays
// northOf or southOf after the turn instead of following the cycle of
// TestExtractionMetamorphic: the school northeast of the district is
// northOf before and after (not westOf), and the park southeast of it
// turns from southOf to northOf (not eastOf).
func TestQuarterTurnDiagonalTies(t *testing.T) {
	district := dataset.NewLayer("district")
	district.Add(dataset.Feature{ID: "d", Geometry: geom.Rect(0, 0, 2, 2)})
	school := dataset.NewLayer("school")
	school.Add(dataset.Feature{ID: "s", Geometry: geom.Pt(3, 3)})
	park := dataset.NewLayer("park")
	park.Add(dataset.Feature{ID: "p", Geometry: geom.Pt(3, -1)})
	d := &dataset.Dataset{Reference: district, Relevant: []*dataset.Layer{school, park}}
	opts := Options{Directional: true, Index: RTreeIndex}
	for _, c := range []struct {
		name string
		d    *dataset.Dataset
		want []string
	}{
		{"as built", d, []string{"northOf_school", "southOf_park"}},
		{"turned a quarter", transformed(d, quarterTurn), []string{"northOf_park", "northOf_school"}},
	} {
		got, err := Extract(c.d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Transactions) != 1 || !slices.Equal(got.Transactions[0].Items, c.want) {
			t.Errorf("%s: table %+v, want one row %v", c.name, got.Transactions, c.want)
		}
	}
}
