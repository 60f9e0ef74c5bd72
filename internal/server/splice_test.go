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
	"repro/internal/dataset"
	"repro/internal/geom"
)

// patchChainOps returns the batch that turns chain step k of d into its
// successor: each kind of edit the splice treats differently, in turn.
func patchChainOps(k int, d *dataset.Dataset) []dataset.Op {
	rel := d.Relevant[k%len(d.Relevant)]
	f := rel.Features[k%rel.Len()]
	moved := geom.Translate(f.Geometry, 0.5, 0).WKT()
	switch k % 4 {
	case 0:
		return []dataset.Op{{Action: dataset.OpUpdate, Layer: rel.Type, ID: f.ID, WKT: moved}}
	case 1:
		return []dataset.Op{
			{Action: dataset.OpDelete, Layer: rel.Type, ID: f.ID},
			{Action: dataset.OpInsert, Layer: rel.Type, ID: f.ID, WKT: moved},
			{Action: dataset.OpInsert, Layer: rel.Type, ID: fmt.Sprintf("new%d", k), WKT: "POINT (0.5 0.5)"},
		}
	case 2:
		ref := d.Reference.Features[k%d.Reference.Len()]
		return []dataset.Op{{Action: dataset.OpUpdate, Layer: d.Reference.Type, ID: ref.ID, Attrs: map[string]dataset.Value{"crimeRate": "high", "score": 0.25}}}
	default:
		return []dataset.Op{{Action: dataset.OpDelete, Layer: rel.Type, ID: f.ID}}
	}
}

// TestPatchChainSplicesSuccessors drives a PATCH chain and requires
// every successor's digest to be that of WriteJSON's bytes for the same
// ops applied locally, every PATCH after the upload's first to be
// spliced from its parent's retained encoding, which the successor's
// then replaces, and a DELETE to drop the encoding with the dataset.
func TestPatchChainSplicesSuccessors(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	info, d := uploadGeneratedScene(t, client, ts.URL+"/v1", 5)
	const steps = 8
	digest := info.Digest
	for k := 0; k < steps; k++ {
		ops := patchChainOps(k, d)
		nd, _, err := d.ApplyOps(ops)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := nd.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(api.PatchRequest{Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		var resp api.PatchResponse
		if status, raw := doJSON(t, client, "PATCH", ts.URL+"/v1/datasets/"+digest, body, &resp); status != http.StatusCreated {
			t.Fatalf("step %d: patch: %d %s", k, status, raw)
		}
		if want := Digest(buf.Bytes()); resp.Dataset.Digest != want || resp.Dataset.Bytes != int64(buf.Len()) {
			t.Fatalf("step %d: successor %s (%d bytes), WriteJSON gives %s (%d bytes)", k, resp.Dataset.Digest, resp.Dataset.Bytes, want, buf.Len())
		}
		if s.deltas.encoding(digest) != nil {
			t.Fatalf("step %d: the parent kept its encoding beside its successor's", k)
		}
		d, digest = nd, resp.Dataset.Digest
	}
	if got := s.trace.Counter("server.datasets.successors_rendered"); got != 1 {
		t.Errorf("successors_rendered = %d, want 1 (the upload's first PATCH)", got)
	}
	if got := s.trace.Counter("server.datasets.successors_spliced"); got != steps-1 {
		t.Errorf("successors_spliced = %d, want %d", got, steps-1)
	}

	if status, raw := doJSON(t, client, "DELETE", ts.URL+"/v1/datasets/"+digest, nil, nil); status != http.StatusOK {
		t.Fatalf("delete: %d %s", status, raw)
	}
	if s.deltas.encoding(digest) != nil {
		t.Fatal("DELETE left the successor's encoding behind")
	}
}

// TestConcurrentPatchesOfOneSuccessor PATCHes one successor from several
// goroutines at once, each moving a different feature: whether a PATCH
// splices the shared encoding or finds it replaced and renders in full,
// its successor must be WriteJSON's bytes.
func TestConcurrentPatchesOfOneSuccessor(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	info, d := uploadGeneratedScene(t, client, ts.URL+"/v1", 9)
	ops := patchChainOps(0, d)
	body, err := json.Marshal(api.PatchRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	var first api.PatchResponse
	if status, raw := doJSON(t, client, "PATCH", ts.URL+"/v1/datasets/"+info.Digest, body, &first); status != http.StatusCreated {
		t.Fatalf("patch: %d %s", status, raw)
	}
	if d, _, err = d.ApplyOps(ops); err != nil {
		t.Fatal(err)
	}

	const n = 6
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		go func(g int) {
			rel := d.Relevant[g%len(d.Relevant)]
			f := rel.Features[g%rel.Len()]
			ops := []dataset.Op{{Action: dataset.OpUpdate, Layer: rel.Type, ID: f.ID, WKT: geom.Translate(f.Geometry, 0, float64(g+1)/4).WKT()}}
			nd, _, err := d.ApplyOps(ops)
			if err != nil {
				errs <- err
				return
			}
			var want bytes.Buffer
			if err := nd.WriteJSON(&want); err != nil {
				errs <- err
				return
			}
			body, err := json.Marshal(api.PatchRequest{Ops: ops})
			if err != nil {
				errs <- err
				return
			}
			req, err := http.NewRequest("PATCH", ts.URL+"/v1/datasets/"+first.Dataset.Digest, bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var got api.PatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("goroutine %d: status %d, %v", g, resp.StatusCode, err)
				return
			}
			if got.Dataset.Digest != Digest(want.Bytes()) {
				errs <- fmt.Errorf("goroutine %d: successor %s, WriteJSON gives %s", g, got.Dataset.Digest, Digest(want.Bytes()))
				return
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < n; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	spliced := s.trace.Counter("server.datasets.successors_spliced")
	rendered := s.trace.Counter("server.datasets.successors_rendered")
	if spliced < 1 || spliced+rendered != n+1 {
		t.Errorf("%d spliced and %d rendered of %d PATCHes, want at least one spliced", spliced, rendered, n+1)
	}
}
