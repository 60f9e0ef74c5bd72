package transact

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/qsr"
)

// goldenCounters are the extract.* counters pinned beside each digest.
var goldenCounters = []string{
	"extract.candidates", "extract.relates", "extract.refine.skipped",
	"extract.items", "extract.prepared.builds", "extract.prepared.edges",
}

// TestExtractGoldenDigestsAtScale pins extraction at the benchmark's
// scale: the four 28×28 scenes of the cli-scene workload at seed 3
// (DefaultScene seeds 12–15, read back from their JSON as qsrmine -data
// reads them) under cli-scene's options and under serve-mix's
// topological-only defaults, and a 12×12 scene of irregular polygons
// under three more option sets. Each runs sequentially and on four
// workers; the table digest and the filter-and-refine counters must not
// move.
func TestExtractGoldenDigestsAtScale(t *testing.T) {
	type golden struct {
		digest   string
		counters [6]int64
	}
	want := map[string]golden{
		"scene28/seed=12/cli-scene":       {"160a9fc6750019287b73bfe5be0be501071fd25adba076f4a94201686fb539ac", [6]int64{15502, 20823, 10181, 21607, 4065, 8290}},
		"scene28/seed=13/cli-scene":       {"deaef7587e424c3a3488e14812763f71d4f1ef6bd322105c67ef9a690d3ff427", [6]int64{15260, 20520, 10000, 21304, 4044, 8205}},
		"scene28/seed=14/cli-scene":       {"4d691f8e3f618c29263c134f0a440ee886d2bd26f0d22b818d07c602c77f9454", [6]int64{15396, 20681, 10111, 21465, 4058, 8299}},
		"scene28/seed=15/cli-scene":       {"37807f0c0023a45199905c926732b5376bef8581407021dbd24703f2e992b14d", [6]int64{15571, 20896, 10246, 21680, 4066, 8497}},
		"scene28/seed=12/serve-mix":       {"c854562abbb9f97b8b26cd9f5d744e08533fc123e09d79203df7aa31ecb73d10", [6]int64{5321, 5321, 0, 6105, 4065, 8290}},
		"scene28/seed=13/serve-mix":       {"9ce7256e505ec3dfce8b978f34d76f1ad5f8233214f3f02ee6c8218994faf5fe", [6]int64{5260, 5260, 0, 6044, 4044, 8205}},
		"scene28/seed=14/serve-mix":       {"95351c33678e28495485a3d00ba21aef2a6ef63e94c2afb542baac875e43f2d9", [6]int64{5285, 5285, 0, 6069, 4058, 8299}},
		"scene28/seed=15/serve-mix":       {"737f67cba53ed10e119e91739d2846d6bde479980536ea825e2d54224222cee5", [6]int64{5325, 5325, 0, 6109, 4066, 8497}},
		"irregular12/seed=5/combined":     {"f21c4a52b6f86172cce8cfe778b95d678de9ce63c347baed872e9ff519f4c023", [6]int64{2630, 3584, 1676, 3865, 727, 1631}},
		"irregular12/seed=5/withDisjoint": {"c9963b8b9ed8552878821ff7e827f3a02fee476a6596cae3596d169d74b0d25f", [6]int64{83952, 954, 82998, 84096, 727, 1631}},
		"irregular12/seed=5/farFrom":      {"608c0640715f3e62a3374fea080b645b695740e07d20c41d717978dc576e8140", [6]int64{83952, 2630, 81322, 84096, 727, 1631}},
	}
	cliScene := Options{Topological: true, Distance: true, Thresholds: qsr.DefaultThresholds(10), Index: RTreeIndex}
	type input struct {
		name string
		d    *dataset.Dataset
		opts map[string]Options
	}
	var inputs []input
	for seed := int64(12); seed <= 15; seed++ {
		d, err := datagen.GenerateScene(datagen.DefaultScene(28, 28, seed))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if d, err = dataset.ReadJSON(&buf); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{
			name: fmt.Sprintf("scene28/seed=%d", seed), d: d,
			opts: map[string]Options{"cli-scene": cliScene, "serve-mix": DefaultOptions()},
		})
	}
	cfg := datagen.DefaultScene(12, 12, 5)
	cfg.IrregularPolygons = true
	irregular, err := datagen.GenerateScene(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := stateOptionsUnderTest()
	inputs = append(inputs, input{
		name: "irregular12/seed=5", d: irregular,
		opts: map[string]Options{"combined": all["combined"], "withDisjoint": all["withDisjoint"], "farFrom": all["farFrom"]},
	})
	for _, in := range inputs {
		for name, opts := range in.opts {
			key := in.name + "/" + name
			for _, par := range []int{1, 4} {
				opts.Parallelism = par
				t.Run(fmt.Sprintf("%s/par=%d", key, par), func(t *testing.T) {
					tr := obs.New(nil)
					table, err := ExtractContext(obs.WithTrace(context.Background(), tr), in.d, opts)
					if err != nil {
						t.Fatal(err)
					}
					var got golden
					got.digest = tableDigest(table)
					for i, c := range goldenCounters {
						got.counters[i] = tr.Counter(c)
					}
					if w := want[key]; got != w {
						t.Errorf("extraction moved:\n got %s %v\nwant %s %v\n(counters %v)", got.digest, got.counters, w.digest, w.counters, goldenCounters)
					}
				})
			}
		}
	}
}
