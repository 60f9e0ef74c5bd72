package transact

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/qsr"
)

// shuffledLayer returns a copy of l with its features in a random order.
func shuffledLayer(l *dataset.Layer, rng *rand.Rand) *dataset.Layer {
	out := &dataset.Layer{Type: l.Type, Features: slices.Clone(l.Features)}
	rng.Shuffle(len(out.Features), func(i, j int) { out.Features[i], out.Features[j] = out.Features[j], out.Features[i] })
	return out
}

// rowsByRefID maps every row of a table to its normalised items.
func rowsByRefID(t *testing.T, table *dataset.Table) map[string][]string {
	t.Helper()
	rows := make(map[string][]string, len(table.Transactions))
	for _, tx := range table.Transactions {
		if _, dup := rows[tx.RefID]; dup {
			t.Fatalf("reference ID %q names two rows", tx.RefID)
		}
		rows[tx.RefID] = dataset.NormalizeItems(tx.Items)
	}
	return rows
}

// TestExtractionInvariantUnderPermutation: shuffling the features within
// every relevant layer and the order of the relevant layers leaves
// every reference row's normalised items as they were, matched by
// reference ID, and shuffling the reference features permutes the rows
// and changes nothing else. Checked on a default scene (polygons, points
// and lines, and a numeric attribute the discretizer fits) at both
// granularities, for topological, distance and directional predicates,
// at parallelism 1 and 4, prepared and unprepared.
func TestExtractionInvariantUnderPermutation(t *testing.T) {
	d, err := datagen.GenerateScene(datagen.DefaultScene(7, 7, 24))
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]Options{
		"topological": {Topological: true},
		"distance":    {Distance: true, Thresholds: qsr.DefaultThresholds(10), IncludeFarFrom: true},
		"directional": {Directional: true},
		"all":         {Topological: true, Distance: true, Thresholds: qsr.DefaultThresholds(10), Directional: true, IncludeIsA: true},
	}
	rng := rand.New(rand.NewSource(24))
	for name, family := range families {
		for _, gran := range []Granularity{TypeLevel, InstanceLevel} {
			for _, parallelism := range []int{1, 4} {
				for _, noPrepare := range []bool{false, true} {
					opts := family
					opts.Index, opts.Granularity, opts.Parallelism, opts.NoPrepare = RTreeIndex, gran, parallelism, noPrepare
					label := fmt.Sprintf("%s/granularity=%d/parallelism=%d/noPrepare=%v", name, gran, parallelism, noPrepare)
					want, err := Extract(d, opts)
					if err != nil {
						t.Fatal(err)
					}
					wantRows := rowsByRefID(t, want)

					relevant := make([]*dataset.Layer, len(d.Relevant))
					for i, l := range d.Relevant {
						relevant[i] = shuffledLayer(l, rng)
					}
					rng.Shuffle(len(relevant), func(i, j int) { relevant[i], relevant[j] = relevant[j], relevant[i] })
					moved := &dataset.Dataset{Reference: d.Reference, Relevant: relevant, NonSpatialAttrs: d.NonSpatialAttrs}
					got, err := Extract(moved, opts)
					if err != nil {
						t.Fatal(err)
					}
					if g := rowsByRefID(t, got); !reflect.DeepEqual(g, wantRows) {
						t.Errorf("%s: shuffled relevant layers change the rows", label)
					}

					ref := shuffledLayer(d.Reference, rng)
					moved = &dataset.Dataset{Reference: ref, Relevant: d.Relevant, NonSpatialAttrs: d.NonSpatialAttrs}
					got, err = Extract(moved, opts)
					if err != nil {
						t.Fatal(err)
					}
					for i, tx := range got.Transactions {
						if tx.RefID != ref.Features[i].ID {
							t.Fatalf("%s: row %d is %q, want the shuffled reference's %q", label, i, tx.RefID, ref.Features[i].ID)
						}
					}
					if g := rowsByRefID(t, got); !reflect.DeepEqual(g, wantRows) {
						t.Errorf("%s: shuffled reference features change the rows", label)
					}
				}
			}
		}
	}
}
