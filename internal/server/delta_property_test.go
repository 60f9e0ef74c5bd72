package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/api"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/mining"
	"repro/internal/transact"
)

// deltaPropertyBatches is how many PATCH batches each seed's chain runs.
// Batch wipeBatch deletes every feature of the smallest relevant layer;
// batch growBatch inserts reference districts without deleting one, so
// the table grows and its minimum support count changes.
const (
	deltaPropertyBatches = 6
	wipeBatch            = 2
	growBatch            = 4
)

// randomDeltaOps builds PATCH batch k of a chain over d: a reference
// district nudged and recoded, one inserted and one deleted (three
// inserted and none deleted in growBatch), and two updates, one insert
// and one delete on random relevant layers; wipeBatch also deletes every
// feature of the smallest relevant layer. It returns the batch and that
// layer's type when it was wiped.
func randomDeltaOps(rng *rand.Rand, d *dataset.Dataset, k int) (ops []dataset.Op, wiped string) {
	touched := map[string]bool{}
	pick := func(l *dataset.Layer) (dataset.Feature, bool) {
		for range 20 {
			f := l.Features[rng.Intn(l.Len())]
			if !touched[l.Type+"/"+f.ID] {
				touched[l.Type+"/"+f.ID] = true
				return f, true
			}
		}
		return dataset.Feature{}, false
	}
	square := func(x, y, w float64) string {
		return fmt.Sprintf("POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))", x, y, x+w, y, x+w, y+w, x, y+w, x, y)
	}
	crime := func() map[string]dataset.Value {
		return map[string]dataset.Value{"crimeRate": []string{"high", "low"}[rng.Intn(2)]}
	}
	env := d.Reference.Envelope()
	at := func() (float64, float64) {
		return env.MinX + rng.Float64()*(env.MaxX-env.MinX-10), env.MinY + rng.Float64()*(env.MaxY-env.MinY-10)
	}

	ref := d.Reference
	if f, ok := pick(ref); ok {
		ops = append(ops, dataset.Op{Action: dataset.OpUpdate, Layer: ref.Type, ID: f.ID,
			WKT: geom.Translate(f.Geometry, rng.Float64()*4-2, rng.Float64()*4-2).WKT(), Attrs: crime()})
	}
	inserts := 1
	if k == growBatch {
		inserts = 3
	} else if f, ok := pick(ref); ok {
		ops = append(ops, dataset.Op{Action: dataset.OpDelete, Layer: ref.Type, ID: f.ID})
	}
	for i := range inserts {
		x, y := at()
		ops = append(ops, dataset.Op{Action: dataset.OpInsert, Layer: ref.Type,
			ID: fmt.Sprintf("district-%d-%d", k, i), WKT: square(x, y, 10), Attrs: crime()})
	}

	var small *dataset.Layer
	if k == wipeBatch {
		for _, l := range d.Relevant {
			if l.Len() > 0 && (small == nil || l.Len() < small.Len()) {
				small = l
			}
		}
		for _, f := range small.Features {
			touched[small.Type+"/"+f.ID] = true
			ops = append(ops, dataset.Op{Action: dataset.OpDelete, Layer: small.Type, ID: f.ID})
		}
		wiped = small.Type
	}
	var live []*dataset.Layer
	for _, l := range d.Relevant {
		if l != small && l.Len() > 1 {
			live = append(live, l)
		}
	}
	for i := range 4 {
		l := live[rng.Intn(len(live))]
		switch i {
		case 0, 1:
			if f, ok := pick(l); ok {
				ops = append(ops, dataset.Op{Action: dataset.OpUpdate, Layer: l.Type, ID: f.ID,
					WKT: geom.Translate(f.Geometry, rng.Float64()*4-2, rng.Float64()*4-2).WKT()})
			}
		case 2:
			x, y := at()
			ops = append(ops, dataset.Op{Action: dataset.OpInsert, Layer: l.Type,
				ID: fmt.Sprintf("%s-%d", l.Type, k), WKT: square(x, y, 1+rng.Float64()*3)})
		case 3:
			if f, ok := pick(l); ok {
				ops = append(ops, dataset.Op{Action: dataset.OpDelete, Layer: l.Type, ID: f.ID})
			}
		}
	}
	return ops, wiped
}

// TestDeltaMinesMatchColdUnderRandomPatches replays chains of random
// PATCH batches (deltaPropertyBatches per seed) on an uploaded datagen
// scene mined with eclat-kc+ and with apriori-kc under one Φ pair, and
// requires every successor's response to equal a cold mine of the same
// bytes on a fresh server (mineCold), MiningMicros aside. The configs
// take turns mining a successor first: that mine finds the parent's
// extraction state and response held and must be served by the delta
// pipeline (delta.mine.patched moves by one), the other reuses the
// successor's state and mines cold. Either mine is one cache miss and
// one pipeline run: looking the parent's response up moves no cache
// counter. Each seed must reach three cases:
// an incremental patch (no rewalk) whose parent response names an item
// the successor's table lacks, which the lookup by name drops; a batch
// that changes MinSupportCount, which PatchResultContext rewalks; and
// reference rows inserted and deleted.
func TestDeltaMinesMatchColdUnderRandomPatches(t *testing.T) {
	cfgs := []core.Config{
		{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.2},
		{Algorithm: core.AlgAprioriKC, MinSupport: 0.2,
			Dependencies: []mining.Pair{{A: "contains_slum", B: "contains_street"}}},
	}
	for _, seed := range []int64{3, 11, 29} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			s := New(Options{Workers: 1})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Shutdown(context.Background())
			client := ts.Client()
			// counts snapshots the counters a successor's mine may move,
			// with /v1/metrics's cache stats.
			counts := func() map[string]int64 {
				m := s.Metrics()
				out := map[string]int64{"cache.hits": m.Cache.Hits, "cache.misses": m.Cache.Misses}
				for _, name := range []string{"delta.mine.patched", "delta.mine.rewalks", "server.cache.hits", "server.cache.misses", "server.mine.runs"} {
					out[name] = m.Obs.Counters[name]
				}
				return out
			}
			mine := func(digest string, cfg core.Config) MineResponse {
				t.Helper()
				var resp MineResponse
				if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, digest, cfg), &resp); status != http.StatusOK {
					t.Fatalf("mine %s: %d %s", digest, status, raw)
				}
				return resp
			}

			scene, err := datagen.GenerateScene(datagen.DefaultScene(8, 8, seed))
			if err != nil {
				t.Fatal(err)
			}
			digest := uploadScene(t, client, ts.URL+"/v1", scene).Digest
			prev := make([]MineResponse, len(cfgs))
			for c, cfg := range cfgs {
				prev[c] = mine(digest, cfg)
			}

			rng := rand.New(rand.NewSource(seed))
			var lacked, rewalked, refInserted, refDeleted bool
			for k := 0; k < deltaPropertyBatches; k++ {
				ops, wiped := randomDeltaOps(rng, scene, k)
				body, err := json.Marshal(api.PatchRequest{Ops: ops})
				if err != nil {
					t.Fatal(err)
				}
				var pr api.PatchResponse
				if status, raw := doJSON(t, client, "PATCH", ts.URL+"/v1/datasets/"+digest, body, &pr); status != http.StatusCreated {
					t.Fatalf("batch %d: patch: %d %s", k, status, raw)
				}
				if ld := pr.ByLayer[scene.Reference.Type]; ld != nil {
					refInserted = refInserted || len(ld.Inserted) > 0
					refDeleted = refDeleted || len(ld.Deleted) > 0
				}
				if scene, _, err = scene.ApplyOps(ops); err != nil {
					t.Fatal(err)
				}
				for _, l := range scene.Relevant {
					if l.Type == wiped && l.Len() != 0 {
						t.Fatalf("batch %d: %d %s features left after the wipe", k, l.Len(), wiped)
					}
				}
				digest = pr.Dataset.Digest
				table, err := transact.Extract(scene, transact.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				held := map[string]bool{}
				for _, tx := range table.Transactions {
					for _, item := range tx.Items {
						held[item] = true
					}
				}

				for i := range cfgs {
					c := (k + i) % len(cfgs)
					before := counts()
					got := mine(digest, cfgs[c])
					after := counts()
					_, want := mineCold(t, scene, cfgs[c])
					got.MiningMicros, want.MiningMicros = 0, 0
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("batch %d, %s: delta-served response differs from the cold mine:\n got %+v\nwant %+v", k, cfgs[c].Algorithm, got, want)
					}
					// One miss and one pipeline run per mine; looking the
					// parent's response up is neither a hit nor a miss.
					moves := map[string]int64{"delta.mine.patched": 0, "server.cache.hits": 0, "server.cache.misses": 1,
						"server.mine.runs": 1, "cache.hits": 0, "cache.misses": 1}
					if i == 0 {
						moves["delta.mine.patched"] = 1
					}
					for name, n := range moves {
						if after[name]-before[name] != n {
							t.Fatalf("batch %d, %s mined %s: %s moved by %d, want %d", k, cfgs[c].Algorithm,
								[]string{"first", "second"}[i], name, after[name]-before[name], n)
						}
					}
					if i == 0 {
						rewalk := after["delta.mine.rewalks"] > before["delta.mine.rewalks"]
						if got.MinSupportCount != prev[c].MinSupportCount {
							if !rewalk {
								t.Fatalf("batch %d: MinSupportCount %d -> %d without a rewalk", k, prev[c].MinSupportCount, got.MinSupportCount)
							}
							rewalked = true
						}
						if !rewalk && lacksItem(prev[c], held) {
							lacked = true
						}
					}
					prev[c] = got
				}
			}
			if !lacked || !rewalked || !refInserted || !refDeleted {
				t.Errorf("cases reached: parent itemset naming an item the successor lacks %v, MinSupportCount rewalk %v, reference insert %v, reference delete %v; want all",
					lacked, rewalked, refInserted, refDeleted)
			}
		})
	}
}

// lacksItem reports whether a frequent itemset of resp names an item
// that held does not hold.
func lacksItem(resp MineResponse, held map[string]bool) bool {
	for _, f := range resp.Frequent {
		for _, item := range f.Items {
			if !held[item] {
				return true
			}
		}
	}
	return false
}
