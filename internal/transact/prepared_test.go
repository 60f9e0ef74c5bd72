package transact

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/qsr"
)

// TestExtractPreparedMatchesUnprepared is the acceptance property of the
// prepared-geometry rework: for every relation family, both granularities,
// and sequential as well as parallel extraction, the prepared refine path
// must produce a byte-identical transaction table to the unprepared one.
func TestExtractPreparedMatchesUnprepared(t *testing.T) {
	d, err := datagen.GenerateScene(datagen.DefaultScene(8, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]Options{
		"topological":  {Topological: true, Index: RTreeIndex},
		"withDisjoint": {Topological: true, IncludeDisjoint: true, Index: NoIndex},
		"distance":     {Distance: true, Thresholds: qsr.DefaultThresholds(10), IncludeFarFrom: true, Index: RTreeIndex},
		"directional":  {Directional: true, Index: NoIndex},
		"all": {
			Topological: true,
			Distance:    true, Thresholds: qsr.DefaultThresholds(10),
			Directional: true,
			IncludeIsA:  true,
			Index:       RTreeIndex,
		},
	}
	for name, base := range families {
		for _, gran := range []Granularity{TypeLevel, InstanceLevel} {
			for _, par := range []int{1, 4} {
				opts := base
				opts.Granularity = gran
				opts.Parallelism = par
				t.Run(fmt.Sprintf("%s/gran=%d/par=%d", name, gran, par), func(t *testing.T) {
					prepared, err := Extract(d, opts)
					if err != nil {
						t.Fatal(err)
					}
					raw := opts
					raw.NoPrepare = true
					unprepared, err := Extract(d, raw)
					if err != nil {
						t.Fatal(err)
					}
					if len(prepared.Transactions) != len(unprepared.Transactions) {
						t.Fatalf("row counts diverge: %d vs %d",
							len(prepared.Transactions), len(unprepared.Transactions))
					}
					for i := range prepared.Transactions {
						p, u := prepared.Transactions[i], unprepared.Transactions[i]
						if p.RefID != u.RefID || !reflect.DeepEqual(p.Items, u.Items) {
							t.Fatalf("row %d diverges:\n prepared   %s %v\n unprepared %s %v",
								i, p.RefID, p.Items, u.RefID, u.Items)
						}
					}
				})
			}
		}
	}
}

// nearTouchScene is one road d and one river s. s's first line starts
// 1.05e-9 above d's first line; its second line runs at height y from
// 0.9e-9 to the right of d's second line. For y up to 2·Eps the second
// lines touch within Eps, so the distance is 0, although the envelopes
// of s and d lie up to 2·Eps apart. dy moves s up.
func nearTouchScene(y, dy float64) (d, s geom.Geometry) {
	d = geom.MultiLineString{Lines: []geom.LineString{
		geom.Line(geom.Pt(0, 0), geom.Pt(50, 0)),
		geom.Line(geom.Pt(100, 0), geom.Pt(101, 0)),
	}}
	s = geom.MultiLineString{Lines: []geom.LineString{
		geom.Line(geom.Pt(0, 0.00000000105+dy), geom.Pt(-10, 10+dy)),
		geom.Line(geom.Pt(101.0000000009, y+dy), geom.Pt(102, y+dy)),
	}}
	return d, s
}

// nearTouchCases are the heights of s's second line and the thresholds
// of the near-touch tests. At y = 1.5e-9 the envelopes lie more than
// Eps apart.
var (
	nearTouchHeights    = []float64{0.0000000009, 0.0000000015}
	nearTouchThresholds = []qsr.DistanceThresholds{{VeryCloseMax: 0, CloseMax: 15}, {VeryCloseMax: 0, CloseMax: 0}, {VeryCloseMax: 0, CloseMax: 1e-9}}
)

// nearTouchCaseName names the subtest of one height and thresholds.
func nearTouchCaseName(y float64, th qsr.DistanceThresholds) string {
	return fmt.Sprintf("y=%g,close=%g", y, th.CloseMax)
}

// TestExtractPreparedMatchesUnpreparedNearTouch: s touches d within Eps
// (distance 0), though their second lines' envelopes lie farther apart
// than the first lines' 1.05e-9. With VeryCloseMax 0 only an exact 0 is
// veryCloseTo, so a prepared distance kernel that skipped the touching
// pair would say closeTo instead. With CloseMax 0, a farFrom filter or
// a candidate gather that ignored the Eps band would call the pair
// farFrom or drop it. Prepared and unprepared extraction must both give
// what qsr.DistanceRelation says, with and without farFrom.
func TestExtractPreparedMatchesUnpreparedNearTouch(t *testing.T) {
	for _, y := range nearTouchHeights {
		d, s := nearTouchScene(y, 0)
		if dist := geom.Distance(d, s); dist != 0 {
			t.Fatalf("y=%g: Distance = %g, want 0", y, dist)
		}
		ref := dataset.NewLayer("road").Add(dataset.Feature{ID: "d", Geometry: d})
		rel := dataset.NewLayer("river").Add(dataset.Feature{ID: "s", Geometry: s})
		ds := &dataset.Dataset{Reference: ref, Relevant: []*dataset.Layer{rel}}
		for _, th := range nearTouchThresholds {
			t.Run(nearTouchCaseName(y, th), func(t *testing.T) {
				want := []string{qsr.Predicate{Relation: qsr.DistanceRelation(d, s, th), FeatureType: "river"}.String()}
				for _, farFrom := range []bool{false, true} {
					for _, noPrepare := range []bool{false, true} {
						opts := Options{Distance: true, Thresholds: th, IncludeFarFrom: farFrom, Index: RTreeIndex, NoPrepare: noPrepare}
						table, err := Extract(ds, opts)
						if err != nil {
							t.Fatal(err)
						}
						if got := table.Transactions[0].Items; !reflect.DeepEqual(got, want) {
							t.Errorf("farFrom=%v noPrepare=%v: items %v, want %v", farFrom, noPrepare, got, want)
						}
					}
				}
			})
		}
	}
}

// TestExtractRefineCounters pins the new filter-and-refine observability:
// the exact-relate and envelope-skip tallies and the prepared-build stats
// must reach the attached trace.
func TestExtractRefineCounters(t *testing.T) {
	d, err := datagen.GenerateScene(datagen.DefaultScene(8, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Distance = true
	opts.Thresholds = qsr.DefaultThresholds(10)

	tr := obs.New(nil)
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := ExtractContext(ctx, d, opts); err != nil {
		t.Fatal(err)
	}
	if got := tr.Counter("extract.relates"); got == 0 {
		t.Errorf("extract.relates = 0, want > 0 (counters: %v)", tr.Counters())
	}
	if got := tr.Counter("extract.prepared.builds"); got == 0 {
		t.Errorf("extract.prepared.builds = 0, want > 0")
	}
	if got := tr.Counter("extract.prepared.edges"); got == 0 {
		t.Errorf("extract.prepared.edges = 0, want > 0")
	}
	// Envelope short-circuits happen on the scene (distant candidates
	// under the distance family, disjoint envelopes under topological).
	if got := tr.Counter("extract.refine.skipped"); got == 0 {
		t.Errorf("extract.refine.skipped = 0, want > 0 (counters: %v)", tr.Counters())
	}

	// The unprepared path must not report prepared builds.
	tr2 := obs.New(nil)
	raw := opts
	raw.NoPrepare = true
	if _, err := ExtractContext(obs.WithTrace(context.Background(), tr2), d, raw); err != nil {
		t.Fatal(err)
	}
	if got := tr2.Counter("extract.prepared.builds"); got != 0 {
		t.Errorf("NoPrepare extraction reported %d prepared builds", got)
	}
	if got := tr2.Counter("extract.relates"); got == 0 {
		t.Errorf("unprepared extraction must still count relates")
	}
	// Identical work happens on both paths, so the refine tallies agree.
	if a, b := tr.Counter("extract.relates"), tr2.Counter("extract.relates"); a != b {
		t.Errorf("relate counts diverge: prepared %d vs unprepared %d", a, b)
	}
	if a, b := tr.Counter("extract.refine.skipped"), tr2.Counter("extract.refine.skipped"); a != b {
		t.Errorf("skip counts diverge: prepared %d vs unprepared %d", a, b)
	}
}
