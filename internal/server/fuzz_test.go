package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/api"
	"repro/internal/dataset"
)

// strictColocateRequest decodes a /v1/colocate body the way a 200 needs
// it decoded: one JSON document, no unknown field, no trailing data, a
// dataset digest and a config that validates.
func strictColocateRequest(body []byte) (api.ColocateRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req api.ColocateRequest
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return req, errors.New("trailing data")
	}
	if req.Dataset == "" {
		return req, errors.New("no dataset")
	}
	return req, req.Config.Validate()
}

// FuzzColocateBody posts arbitrary bodies to POST /v1/colocate, with $D
// standing for a stored scene's digest and $T for a stored table's. Every
// answer must be a 200 for a strictly decoded, validated request on the
// scene, or a typed error envelope: 400 bad_request, 404 not_found,
// 422 config_invalid, or 504 timeout for a request that set a deadline
// under a second. Never a 500 or a panic.
func FuzzColocateBody(f *testing.F) {
	s := New(Options{Workers: 1})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	upload := func(path string, body []byte) string {
		rec := post(path, body)
		var info api.DatasetInfo
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &info) != nil {
			f.Fatalf("upload to %s: %d %s", path, rec.Code, rec.Body)
		}
		return info.Digest
	}
	var scene bytes.Buffer
	if err := dataset.PortoAlegreScene().WriteJSON(&scene); err != nil {
		f.Fatal(err)
	}
	sceneDigest := upload("/v1/datasets/scene", scene.Bytes())
	tableDigest := upload("/v1/datasets/table", []byte("r1,a,b\nr2,a,c\n"))

	for _, seed := range []string{
		`{"dataset":"$D","config":{"distance":3,"minPI":0.2}}`,
		`{"dataset":"$D","config":{"distance":3,"minPI":0.2,"maxSize":2,"parallelism":2,"topK":1},"timeoutMillis":60000}`,
		`{"dataset":"$D","config":{"distance":1e308,"minPI":1}}`,
		`{"dataset":"$D","config":{"distance":0,"minPI":1e-300}}`,
		`{"dataset":"$D","config":{"distance":1,"minPI":0.5},"timeoutMillis":1}`,
		`{"dataset":"$D","config":{"distance":1.25,"minPI":0.5},"timeoutMillis":9223372036854775807}`,
		`{"dataset":"$D","config":{"distance":1,"minPI":0.5},"timeoutMillis":-5}`,
		`{"dataset":"$D","config":{"distance":1,"minPI":0.5}} trailing`,
		`{"dataset":"$D","config":{"distance":1,"minPI":0.5}}{}`,
		`{"dataset":"$D","config":{"distance":1,"minPI":0.5,"engine":"joinless"}}`,
		`{"dataset":"$D","config":{"distance":-1,"minPI":0.5}}`,
		`{"dataset":"$D","config":{"distance":1,"minPI":0}}`,
		`{"dataset":"$D","config":{"distance":1,"minPI":0.5,"topK":-1}}`,
		`{"dataset":"$D","colocate":{"distance":1,"minPI":0.5}}`,
		`{"dataset":"$T","config":{"distance":1,"minPI":0.5}}`,
		`{"dataset":"unknown","config":{"distance":1,"minPI":0.5}}`,
		`{"config":{"distance":1,"minPI":0.5}}`,
		`{"dataset":1}`,
		`null`,
		`[]`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		body = bytes.ReplaceAll(bytes.ReplaceAll(body, []byte("$D"), []byte(sceneDigest)), []byte("$T"), []byte(tableDigest))
		rec := post("/v1/colocate", body)
		req, strictErr := strictColocateRequest(body)
		if rec.Code == http.StatusOK {
			if strictErr != nil || req.Dataset != sceneDigest {
				t.Fatalf("200 for %q (strict decode: %v)", body, strictErr)
			}
			var resp api.MineResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Colocation == nil || resp.Dataset != sceneDigest {
				t.Fatalf("200 for %q carries %s", body, rec.Body)
			}
			return
		}
		want := map[int]api.ErrorCode{
			http.StatusBadRequest:          api.CodeBadRequest,
			http.StatusNotFound:            api.CodeNotFound,
			http.StatusUnprocessableEntity: api.CodeConfigInvalid,
			http.StatusGatewayTimeout:      api.CodeTimeout,
		}[rec.Code]
		var env api.ErrorEnvelope
		if want == "" || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != want {
			t.Fatalf("%q: status %d, body %s", body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusGatewayTimeout && (strictErr != nil || req.TimeoutMillis <= 0 || req.TimeoutMillis >= 1000) {
			t.Fatalf("%q: timed out without asking for a deadline under a second", body)
		}
	})
}
