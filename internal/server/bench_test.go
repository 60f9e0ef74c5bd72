package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/api"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// BenchmarkPatch times one PATCH that moves one relevant feature of a
// 20×20 scene, serve-mix's size: "upload" PATCHes the uploaded body,
// which renders the successor in full, and "successor" PATCHes a PATCH
// successor, which splices its parent's retained encoding.
func BenchmarkPatch(b *testing.B) {
	d, err := datagen.GenerateScene(datagen.DefaultScene(20, 20, 1))
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	if err := d.WriteJSON(&body); err != nil {
		b.Fatal(err)
	}
	f := d.Relevant[0].Features[0]
	moves := [2][]byte{}
	for i, dx := range []float64{0.75, -0.75} {
		op := dataset.Op{Action: dataset.OpUpdate, Layer: d.Relevant[0].Type, ID: f.ID, WKT: geom.Translate(f.Geometry, dx, 0).WKT()}
		if moves[i], err = json.Marshal(api.PatchRequest{Ops: []dataset.Op{op}}); err != nil {
			b.Fatal(err)
		}
	}
	for _, chain := range []bool{false, true} {
		name := "upload"
		if chain {
			name = "successor"
		}
		b.Run(name, func(b *testing.B) {
			s := New(Options{Workers: 1})
			defer s.Shutdown(context.Background())
			h := s.Handler()
			do := func(method, path string, body []byte) []byte {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
				if rec.Code != http.StatusCreated {
					b.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
				}
				return rec.Body.Bytes()
			}
			var info api.DatasetInfo
			if err := json.Unmarshal(do("POST", "/v1/datasets/scene", body.Bytes()), &info); err != nil {
				b.Fatal(err)
			}
			digest := info.Digest
			// Moving the feature out and back alternates between two
			// successors, so the store stays two entries large.
			for i := 0; i < 2 && chain; i++ {
				var resp api.PatchResponse
				if err := json.Unmarshal(do("PATCH", "/v1/datasets/"+digest, moves[i]), &resp); err != nil {
					b.Fatal(err)
				}
				digest = resp.Dataset.Digest
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var resp api.PatchResponse
				if err := json.Unmarshal(do("PATCH", "/v1/datasets/"+digest, moves[i%2]), &resp); err != nil {
					b.Fatal(err)
				}
				if chain {
					digest = resp.Dataset.Digest
				}
			}
		})
	}
}

// BenchmarkSuccessorMine times POST /v1/mine of a PATCH successor whose
// parent's extraction state and mining response the server holds, the
// mine the delta pipeline serves. Each iteration first PATCHes the
// previous successor, untimed, moving one relevant feature by ±0.75
// plus a millionth per iteration, so every successor is a new digest
// and no mine is a cache hit. "20x20" is serve-mix's scene and config;
// "40x40" is a scene four times larger mined at 5 %.
func BenchmarkSuccessorMine(b *testing.B) {
	for _, bc := range []struct {
		name string
		grid int
		cfg  core.Config
	}{
		{"20x20", 20, core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.2}},
		{"40x40", 40, core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.05}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d, err := datagen.GenerateScene(datagen.DefaultScene(bc.grid, bc.grid, 1))
			if err != nil {
				b.Fatal(err)
			}
			var body bytes.Buffer
			if err := d.WriteJSON(&body); err != nil {
				b.Fatal(err)
			}
			// A small store keeps the chain's old successors from piling up.
			s := New(Options{Workers: 1, StoreMaxEntries: 8})
			defer s.Shutdown(context.Background())
			h := s.Handler()
			do := func(method, path string, body []byte, want int) []byte {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
				if rec.Code != want {
					b.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
				}
				return rec.Body.Bytes()
			}
			mine := func(digest string) {
				req, err := json.Marshal(MineRequest{Dataset: digest, Config: bc.cfg})
				if err != nil {
					b.Fatal(err)
				}
				do("POST", "/v1/mine", req, http.StatusOK)
			}
			var info api.DatasetInfo
			if err := json.Unmarshal(do("POST", "/v1/datasets/scene", body.Bytes(), http.StatusCreated), &info); err != nil {
				b.Fatal(err)
			}
			digest := info.Digest
			mine(digest)
			f := d.Relevant[0].Features[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dx := 0.75*float64(1-2*(i%2)) + float64(i)*1e-6
				op := dataset.Op{Action: dataset.OpUpdate, Layer: d.Relevant[0].Type, ID: f.ID, WKT: geom.Translate(f.Geometry, dx, 0).WKT()}
				patch, err := json.Marshal(api.PatchRequest{Ops: []dataset.Op{op}})
				if err != nil {
					b.Fatal(err)
				}
				var resp api.PatchResponse
				if err := json.Unmarshal(do("PATCH", "/v1/datasets/"+digest, patch, http.StatusCreated), &resp); err != nil {
					b.Fatal(err)
				}
				digest = resp.Dataset.Digest
				b.StartTimer()
				mine(digest)
			}
			b.StopTimer()
			if n := s.Metrics().Obs.Counters["delta.mine.patched"]; n != int64(b.N) {
				b.Fatalf("delta.mine.patched = %d after %d successor mines", n, b.N)
			}
		})
	}
}
