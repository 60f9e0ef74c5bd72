package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/api"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// uploadSampleTable uploads a small transaction-table CSV.
func uploadSampleTable(t *testing.T, client *http.Client, base string) datasetInfo {
	t.Helper()
	csv := []byte("r1,a,b\nr2,a,c\nr3,a,b\nr4,b,c\nr5,a,b,c\n")
	var info datasetInfo
	status, raw := doJSON(t, client, "POST", base+"/datasets/table", csv, &info)
	if status != http.StatusCreated {
		t.Fatalf("table upload: %d %s", status, raw)
	}
	return info
}

// uploadGeneratedScene uploads a deterministic datagen scene large
// enough that a single-feature edit dirties only a minority of rows.
func uploadGeneratedScene(t *testing.T, client *http.Client, base string, seed int64) (datasetInfo, *dataset.Dataset) {
	t.Helper()
	d, err := datagen.GenerateScene(datagen.DefaultScene(6, 5, seed))
	if err != nil {
		t.Fatalf("GenerateScene: %v", err)
	}
	return uploadScene(t, client, base, d), d
}

// uploadScene uploads d as a WKT-JSON scene.
func uploadScene(t *testing.T, client *http.Client, base string, d *dataset.Dataset) datasetInfo {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var info datasetInfo
	status, raw := doJSON(t, client, "POST", base+"/datasets/scene", buf.Bytes(), &info)
	if status != http.StatusCreated {
		t.Fatalf("scene upload: %d %s", status, raw)
	}
	return info
}

// mineCold uploads d to a fresh server and mines it from scratch: the
// reference a delta-served response must equal.
func mineCold(t *testing.T, d *dataset.Dataset, cfg core.Config) (datasetInfo, MineResponse) {
	t.Helper()
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	info := uploadScene(t, ts.Client(), ts.URL+"/v1", d)
	var resp MineResponse
	if status, raw := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/mine", mineBody(t, info.Digest, cfg), &resp); status != http.StatusOK {
		t.Fatalf("cold mine: %d %s", status, raw)
	}
	return info, resp
}

// assertSameMine requires a delta-served response to report the cold
// response's table and itemsets.
func assertSameMine(t *testing.T, got, cold MineResponse) {
	t.Helper()
	if got.Transactions != cold.Transactions || got.MinSupportCount != cold.MinSupportCount {
		t.Fatalf("headline mismatch: delta %+v cold %+v", got, cold)
	}
	if len(got.Frequent) != len(cold.Frequent) {
		t.Fatalf("frequent count %d, cold %d", len(got.Frequent), len(cold.Frequent))
	}
	for i := range cold.Frequent {
		g, w := got.Frequent[i], cold.Frequent[i]
		if g.Support != w.Support || fmt.Sprint(g.Items) != fmt.Sprint(w.Items) {
			t.Fatalf("frequent[%d] = %v(%d), cold %v(%d)", i, g.Items, g.Support, w.Items, w.Support)
		}
	}
}

// singleMoveOps nudges the first feature of the first relevant layer.
func singleMoveOps(d *dataset.Dataset) []dataset.Op {
	layer := d.Relevant[0]
	f := layer.Features[0]
	env := f.Geometry.Envelope()
	wkt := fmt.Sprintf("POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))",
		env.MinX+1, env.MinY, env.MaxX+1, env.MinY,
		env.MaxX+1, env.MaxY, env.MinX+1, env.MaxY, env.MinX+1, env.MinY)
	return []dataset.Op{{Action: dataset.OpUpdate, Layer: layer.Type, ID: f.ID, WKT: wkt}}
}

// TestPatchThenMineUsesDeltaPipeline is the delta pipeline's acceptance
// path: upload a scene, mine it, PATCH one feature, mine the successor,
// and require (a) the delta counters to prove sparse re-extraction and
// result patching happened, and (b) the delta-served response to be
// identical to a cold mine of the successor on a fresh server.
func TestPatchThenMineUsesDeltaPipeline(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	info, scene := uploadGeneratedScene(t, client, ts.URL+"/v1", 17)
	cfg := core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.2}

	var parentResp MineResponse
	status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, info.Digest, cfg), &parentResp)
	if status != http.StatusOK {
		t.Fatalf("parent mine: %d %s", status, raw)
	}

	ops, err := json.Marshal(api.PatchRequest{Ops: singleMoveOps(scene)})
	if err != nil {
		t.Fatal(err)
	}
	var patched api.PatchResponse
	status, raw = doJSON(t, client, "PATCH", ts.URL+"/v1/datasets/"+info.Digest, ops, &patched)
	if status != http.StatusCreated {
		t.Fatalf("patch: %d %s", status, raw)
	}
	if patched.Parent != info.Digest || patched.Dataset.Digest == info.Digest {
		t.Fatalf("patch lineage wrong: %+v", patched)
	}
	if patched.Changed != 1 || patched.Dataset.Kind != KindScene {
		t.Fatalf("patch response wrong: %+v", patched)
	}

	var deltaResp MineResponse
	status, raw = doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, patched.Dataset.Digest, cfg), &deltaResp)
	if status != http.StatusOK {
		t.Fatalf("successor mine: %d %s", status, raw)
	}

	// The counters prove the delta pipeline ran: only a minority of rows
	// re-extracted, prepared geometries were reused, and the parent's
	// mining result was patched rather than recomputed.
	c := s.Metrics().Obs.Counters
	if c["delta.rows.dirty"] == 0 || c["delta.rows.dirty"] >= c["delta.rows.total"] {
		t.Errorf("dirty rows = %d of %d; want sparse non-zero", c["delta.rows.dirty"], c["delta.rows.total"])
	}
	if c["delta.prepared.reused"] == 0 {
		t.Errorf("delta.prepared.reused = 0, want > 0")
	}
	if c["delta.mine.patched"] != 1 {
		t.Errorf("delta.mine.patched = %d, want 1 (counters: %v)", c["delta.mine.patched"], c)
	}

	// Cold reference: a fresh server mining the successor from scratch.
	nd, _, err := scene.ApplyOps(singleMoveOps(scene))
	if err != nil {
		t.Fatal(err)
	}
	info2, coldResp := mineCold(t, nd, cfg)
	if info2.Digest != patched.Dataset.Digest {
		t.Fatalf("successor digest %s differs from independent serialisation %s", patched.Dataset.Digest, info2.Digest)
	}
	assertSameMine(t, deltaResp, coldResp)

	// The delta-served response is cached: an identical re-request hits.
	var again MineResponse
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, patched.Dataset.Digest, cfg), &again); status != http.StatusOK {
		t.Fatalf("re-mine: %d %s", status, raw)
	}
	if !again.Cached {
		t.Errorf("second successor mine should be a cache hit")
	}
}

// TestPatchRepeatedIDMinesCold: uploads accept a scene whose reference
// layer repeats a feature ID, but its rows cannot carry over by ID. The
// successor's mine must take the cold pipeline (delta.apply.errors) and
// agree with a fresh server, which finds 143 itemsets where a delta
// extraction matching rows by ID serves 125.
func TestPatchRepeatedIDMinesCold(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	scene, err := datagen.GenerateScene(datagen.DefaultScene(4, 3, 13))
	if err != nil {
		t.Fatal(err)
	}
	scene.Reference.Features[1].ID = scene.Reference.Features[0].ID
	info := uploadScene(t, client, ts.URL+"/v1", scene)
	cfg := core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.2}
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, info.Digest, cfg), &MineResponse{}); status != http.StatusOK {
		t.Fatalf("parent mine: %d %s", status, raw)
	}

	slum := scene.Relevant[0].Features[2]
	move := []dataset.Op{{Action: dataset.OpUpdate, Layer: scene.Relevant[0].Type, ID: slum.ID,
		WKT: geom.Translate(slum.Geometry, 0.25, 0).WKT()}}
	ops, err := json.Marshal(api.PatchRequest{Ops: move})
	if err != nil {
		t.Fatal(err)
	}
	var patched api.PatchResponse
	if status, raw := doJSON(t, client, "PATCH", ts.URL+"/v1/datasets/"+info.Digest, ops, &patched); status != http.StatusCreated {
		t.Fatalf("patch: %d %s", status, raw)
	}
	var deltaResp MineResponse
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, patched.Dataset.Digest, cfg), &deltaResp); status != http.StatusOK {
		t.Fatalf("successor mine: %d %s", status, raw)
	}
	if n := s.Metrics().Obs.Counters["delta.apply.errors"]; n != 1 {
		t.Errorf("delta.apply.errors = %d, want 1", n)
	}

	nd, _, err := scene.ApplyOps(move)
	if err != nil {
		t.Fatal(err)
	}
	_, coldResp := mineCold(t, nd, cfg)
	assertSameMine(t, deltaResp, coldResp)
}

// TestPatchChainMinesIncrementally mines after every patch in a chain
// and requires each step past the first parent to patch, not rewalk the
// whole database from scratch.
func TestPatchChainMinesIncrementally(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	info, scene := uploadGeneratedScene(t, client, ts.URL+"/v1", 31)
	cfg := core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.25}
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, info.Digest, cfg), nil); status != http.StatusOK {
		t.Fatalf("parent mine: %d %s", status, raw)
	}

	digest := info.Digest
	for step := 0; step < 3; step++ {
		layer := scene.Relevant[step%len(scene.Relevant)]
		f := layer.Features[step%layer.Len()]
		op := dataset.Op{Action: dataset.OpUpdate, Layer: layer.Type, ID: f.ID,
			WKT: fmt.Sprintf("POLYGON ((%d 1, %d 1, %d 3, %d 3, %d 1))", step*3, step*3+2, step*3+2, step*3, step*3)}
		body, _ := json.Marshal(api.PatchRequest{Ops: []dataset.Op{op}})
		var pr api.PatchResponse
		if status, raw := doJSON(t, client, "PATCH", ts.URL+"/v1/datasets/"+digest, body, &pr); status != http.StatusCreated {
			t.Fatalf("step %d patch: %d %s", step, status, raw)
		}
		if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, pr.Dataset.Digest, cfg), nil); status != http.StatusOK {
			t.Fatalf("step %d mine: %d %s", step, status, raw)
		}
		scene, _, _ = scene.ApplyOps([]dataset.Op{op})
		digest = pr.Dataset.Digest
	}
	c := s.Metrics().Obs.Counters
	if c["delta.mine.patched"] != 3 {
		t.Errorf("delta.mine.patched = %d, want 3 (counters: %v)", c["delta.mine.patched"], c)
	}
	if c["delta.state.reused"] != 0 {
		// Each mine consumes the parent state via Apply; direct state
		// reuse happens on re-mining the same digest, not here.
		t.Logf("note: delta.state.reused = %d", c["delta.state.reused"])
	}
}

// TestDatasetLifecycle exercises GET /v1/datasets and DELETE
// /v1/datasets/{digest}, requiring deletion to invalidate the cached
// results of exactly that digest (counter-verified).
func TestDatasetLifecycle(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	sceneInfo := uploadSampleScene(t, client, ts.URL+"/v1")
	tableInfo := uploadSampleTable(t, client, ts.URL+"/v1")

	var list api.DatasetList
	if status, raw := doJSON(t, client, "GET", ts.URL+"/v1/datasets", nil, &list); status != http.StatusOK {
		t.Fatalf("list: %d %s", status, raw)
	}
	if len(list.Datasets) != 2 {
		t.Fatalf("list has %d datasets, want 2: %+v", len(list.Datasets), list)
	}
	if list.Datasets[0].Digest > list.Datasets[1].Digest {
		t.Errorf("list not ordered by digest: %+v", list)
	}

	// Two distinct configs fill two cache entries for the scene.
	for _, ms := range []float64{0.3, 0.5} {
		cfg := core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: ms}
		if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, sceneInfo.Digest, cfg), nil); status != http.StatusOK {
			t.Fatalf("mine: %d %s", status, raw)
		}
	}
	tcfg := core.Config{Algorithm: core.AlgApriori, MinSupport: 0.4}
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, tableInfo.Digest, tcfg), nil); status != http.StatusOK {
		t.Fatalf("table mine: %d %s", status, raw)
	}

	var del api.DeleteResponse
	if status, raw := doJSON(t, client, "DELETE", ts.URL+"/v1/datasets/"+sceneInfo.Digest, nil, &del); status != http.StatusOK {
		t.Fatalf("delete: %d %s", status, raw)
	}
	if !del.Deleted || del.ResultsInvalidated != 2 {
		t.Fatalf("delete response %+v, want deleted with 2 results invalidated", del)
	}
	c := s.Metrics().Obs.Counters
	if c["server.cache.invalidated"] != 2 || c["server.datasets.deletes"] != 1 {
		t.Errorf("counters invalidated=%d deletes=%d, want 2 and 1",
			c["server.cache.invalidated"], c["server.datasets.deletes"])
	}

	// The dataset is gone; its cached results are gone; the table's
	// cached result survives.
	if status, _ := doJSON(t, client, "GET", ts.URL+"/v1/datasets/"+sceneInfo.Digest, nil, nil); status != http.StatusNotFound {
		t.Errorf("metadata after delete: %d, want 404", status)
	}
	cfg := core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.3}
	if status, _ := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, sceneInfo.Digest, cfg), nil); status != http.StatusNotFound {
		t.Errorf("mine after delete: %d, want 404", status)
	}
	if status, _ := doJSON(t, client, "DELETE", ts.URL+"/v1/datasets/"+sceneInfo.Digest, nil, nil); status != http.StatusNotFound {
		t.Errorf("double delete: %d, want 404", status)
	}
	var tresp MineResponse
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, tableInfo.Digest, tcfg), &tresp); status != http.StatusOK {
		t.Fatalf("table re-mine: %d %s", status, raw)
	}
	if !tresp.Cached {
		t.Errorf("unrelated cached result was invalidated by the delete")
	}
	if status, raw := doJSON(t, client, "GET", ts.URL+"/v1/datasets", nil, &list); status != http.StatusOK {
		t.Fatalf("list: %d %s", status, raw)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].Digest != tableInfo.Digest {
		t.Fatalf("list after delete: %+v", list)
	}
}

// TestDeleteParentThenMineSuccessor deletes a PATCH parent and checks
// the successor still mines correctly via the full pipeline (its
// lineage was forgotten with the parent).
func TestDeleteParentThenMineSuccessor(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	info, scene := uploadGeneratedScene(t, client, ts.URL+"/v1", 5)
	cfg := core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.25}
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, info.Digest, cfg), nil); status != http.StatusOK {
		t.Fatalf("parent mine: %d %s", status, raw)
	}
	body, _ := json.Marshal(api.PatchRequest{Ops: singleMoveOps(scene)})
	var pr api.PatchResponse
	if status, raw := doJSON(t, client, "PATCH", ts.URL+"/v1/datasets/"+info.Digest, body, &pr); status != http.StatusCreated {
		t.Fatalf("patch: %d %s", status, raw)
	}
	if status, raw := doJSON(t, client, "DELETE", ts.URL+"/v1/datasets/"+info.Digest, nil, nil); status != http.StatusOK {
		t.Fatalf("delete parent: %d %s", status, raw)
	}
	var resp MineResponse
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, pr.Dataset.Digest, cfg), &resp); status != http.StatusOK {
		t.Fatalf("successor mine: %d %s", status, raw)
	}
	if c := s.Metrics().Obs.Counters; c["delta.mine.patched"] != 0 {
		t.Errorf("successor mine used a forgotten parent: %v", c)
	}
	if len(resp.Frequent) == 0 {
		t.Errorf("successor mine returned nothing")
	}
}

// TestPatchValidation covers the PATCH error surface.
func TestPatchValidation(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	sceneInfo := uploadSampleScene(t, client, ts.URL+"/v1")
	tableInfo := uploadSampleTable(t, client, ts.URL+"/v1")
	good, _ := json.Marshal(api.PatchRequest{Ops: []dataset.Op{
		{Action: dataset.OpDelete, Layer: "slum", ID: "nope"},
	}})

	cases := []struct {
		name   string
		digest string
		body   []byte
		want   int
	}{
		{"unknown digest", "deadbeef", good, http.StatusNotFound},
		{"table dataset", tableInfo.Digest, good, http.StatusBadRequest},
		{"bad json", sceneInfo.Digest, []byte("{"), http.StatusBadRequest},
		{"unknown field", sceneInfo.Digest, []byte(`{"ops":[],"extra":1}`), http.StatusBadRequest},
		{"empty batch", sceneInfo.Digest, []byte(`{"ops":[]}`), http.StatusBadRequest},
		{"invalid op", sceneInfo.Digest, good, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := doJSON(t, client, "PATCH", ts.URL+"/v1/datasets/"+tc.digest, tc.body, nil)
			if status != tc.want {
				t.Fatalf("PATCH = %d, want %d (%s)", status, tc.want, raw)
			}
		})
	}
}
