package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/api"
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
