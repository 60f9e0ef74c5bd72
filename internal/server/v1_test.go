package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// decodeEnvelope parses a /v1 error body, failing the test on anything
// that is not the uniform envelope.
func decodeEnvelope(t *testing.T, raw string) api.ErrorBody {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal([]byte(raw), &env); err != nil || env.Error.Code == "" {
		t.Fatalf("body %q is not the error envelope (err %v)", raw, err)
	}
	return env.Error
}

// TestUnprefixedPathsNotFound enumerates the endpoint table: every
// route answers on its /v1 path, and its unprefixed form — the retired
// pre-/v1 surface — falls through to the uniform 404 not_found envelope.
func TestUnprefixedPathsNotFound(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	// Fill the path placeholders with values that at worst 404; the
	// point is routing, not happy paths.
	fill := func(p string) string {
		p = strings.ReplaceAll(p, "{digest}", "beef")
		return strings.ReplaceAll(p, "{id}", "j000000-00000042")
	}
	for _, rt := range s.routeTable() {
		t.Run(rt.Method+" "+rt.V1, func(t *testing.T) {
			if status, _ := doJSON(t, client, rt.Method, ts.URL+fill(rt.V1), nil, nil); status == http.StatusMethodNotAllowed {
				t.Errorf("%s %s not routed", rt.Method, rt.V1)
			}
			bare := fill(strings.TrimPrefix(rt.V1, "/v1"))
			status, raw := doJSON(t, client, rt.Method, ts.URL+bare, nil, nil)
			if status != http.StatusNotFound {
				t.Fatalf("%s %s: status %d, want 404", rt.Method, bare, status)
			}
			if eb := decodeEnvelope(t, raw); eb.Code != api.CodeNotFound || !strings.Contains(eb.Message, "no such endpoint") {
				t.Errorf("%s %s: envelope %+v, want not_found for the endpoint", rt.Method, bare, eb)
			}
		})
	}
}

// TestRemovedKnobsRejected pins the wire contract for the removed
// co-location engine field, FP-growth algorithm names, grid index and
// pool widths:
// each request in testdata/removed_knobs.json is a 400 bad_request
// whose message names the offending field or the values that remain
// valid.
func TestRemovedKnobsRejected(t *testing.T) {
	raw, err := os.ReadFile("testdata/removed_knobs.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name     string          `json:"name"`
		Path     string          `json:"path"`
		Body     json.RawMessage `json:"body"`
		Mentions []string        `json:"mentions"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()
	info := uploadSampleScene(t, client, ts.URL+"/v1")

	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			body := strings.ReplaceAll(string(tc.Body), "DIGEST", info.Digest)
			status, raw := doJSON(t, client, "POST", ts.URL+tc.Path, []byte(body), nil)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d %s, want 400", status, raw)
			}
			eb := decodeEnvelope(t, raw)
			if eb.Code != api.CodeBadRequest {
				t.Errorf("code %q, want bad_request", eb.Code)
			}
			for _, want := range tc.Mentions {
				if !strings.Contains(eb.Message, want) {
					t.Errorf("message %q does not mention %s", eb.Message, want)
				}
			}
		})
	}
}

// TestErrorEnvelopeCodes pins the machine-readable code for each error
// class the API can emit.
func TestErrorEnvelopeCodes(t *testing.T) {
	s := New(Options{MaxUploadBytes: 1 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	var info datasetInfo
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/datasets/table", []byte("r1,a,b\nr2,a,b\n"), &info); status != http.StatusCreated {
		t.Fatalf("upload: %d %s", status, raw)
	}
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 api.ErrorCode
	}{
		{"unknown route", "GET", "/v1/nope", "", 404, api.CodeNotFound},
		{"garbage body", "POST", "/v1/mine", "}{", 400, api.CodeBadRequest},
		{"unknown dataset", "POST", "/v1/mine", `{"dataset":"beef","config":{"minSupport":0.5}}`, 404, api.CodeNotFound},
		{"unknown job", "GET", "/v1/jobs/j000000-00000042", "", 404, api.CodeNotFound},
		{"engine config error", "POST", "/v1/colocate",
			fmt.Sprintf(`{"dataset":%q,"config":{"distance":1,"minPI":0.5}}`, info.Digest),
			422, api.CodeConfigInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := doJSON(t, client, tc.method, ts.URL+tc.path, []byte(tc.body), nil)
			if status != tc.wantStatus {
				t.Fatalf("status %d %s, want %d", status, raw, tc.wantStatus)
			}
			eb := decodeEnvelope(t, raw)
			if eb.Code != tc.wantCode {
				t.Errorf("code %q, want %q", eb.Code, tc.wantCode)
			}
			if eb.RequestID == "" {
				t.Error("envelope missing requestId")
			}
		})
	}
}

// TestRequestIDAdoptedAndGenerated: a caller-supplied X-Request-ID is
// echoed on the response and into error envelopes; absent one, the
// middleware mints an ID.
func TestRequestIDAdoptedAndGenerated(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	req, _ := http.NewRequest("GET", ts.URL+"/v1/datasets/beef", nil)
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env api.ErrorEnvelope
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("response X-Request-ID = %q, want the caller's", got)
	}
	if env.Error.RequestID != "trace-me-42" {
		t.Errorf("envelope requestId = %q, want the caller's", env.Error.RequestID)
	}

	resp2, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("generated request ID %q, want 16 hex chars", got)
	}
}

// TestRetryAfterOn503 requires every 503 — draining and queue-full — to
// carry a Retry-After hint and the matching machine code.
func TestRetryAfterOn503(t *testing.T) {
	t.Run("draining", func(t *testing.T) {
		s := New(Options{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/mine", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("draining 503 missing Retry-After")
		}
		var env api.ErrorEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		if env.Error.Code != api.CodeDraining {
			t.Errorf("code %q, want draining", env.Error.Code)
		}
	})

	t.Run("queue full", func(t *testing.T) {
		s := New(Options{Workers: 1, QueueCap: 1})
		release := make(chan struct{})
		s.mineHook = func(ctx context.Context) error {
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer func() {
			close(release) // unblock the pool before draining
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		client := ts.Client()

		var info datasetInfo
		doJSON(t, client, "POST", ts.URL+"/v1/datasets/table", []byte("r1,a,b\n"), &info)
		body := fmt.Sprintf(`{"dataset":%q,"config":{"minSupport":0.5}}`, info.Digest)
		// One running + one queued fill the pool; the next submission
		// must bounce with 503 queue_full and a Retry-After hint.
		var last *http.Response
		for i := 0; i < 8; i++ {
			resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode == http.StatusServiceUnavailable {
				last = resp
				break
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d: status %d", i, resp.StatusCode)
			}
		}
		if last == nil {
			t.Fatal("queue never filled")
		}
		defer last.Body.Close()
		if last.Header.Get("Retry-After") == "" {
			t.Error("queue-full 503 missing Retry-After")
		}
		var env api.ErrorEnvelope
		json.NewDecoder(last.Body).Decode(&env)
		if env.Error.Code != api.CodeQueueFull {
			t.Errorf("code %q, want queue_full", env.Error.Code)
		}
	})
}

// TestMineRejectsBadDistanceThresholds: distance thresholds that break
// 0 <= veryCloseMax <= closeMax used to mine silently wrong rows; a mine
// naming them is now a 422 config_invalid, with or without farFrom.
func TestMineRejectsBadDistanceThresholds(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	districts := dataset.NewLayer("district")
	districts.Add(dataset.Feature{ID: "d", Geometry: geom.Rect(0, 0, 10, 10)})
	slums := dataset.NewLayer("slum")
	slums.Add(dataset.Feature{ID: "s1", Geometry: geom.Rect(2, 2, 4, 4)})
	slums.Add(dataset.Feature{ID: "s2", Geometry: geom.Rect(13, 0, 14, 1)})
	info := uploadScene(t, client, ts.URL+"/v1", &dataset.Dataset{Reference: districts, Relevant: []*dataset.Layer{slums}})

	for _, th := range []string{`{"veryCloseMax":1,"closeMax":-1}`, `{"veryCloseMax":5,"closeMax":2}`} {
		for _, farFrom := range []bool{false, true} {
			body := fmt.Sprintf(`{"dataset":%q,"config":{"minSupport":0.5,"extraction":{"topological":true,"distance":true,"includeFarFrom":%v,"thresholds":%s}}}`,
				info.Digest, farFrom, th)
			status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", []byte(body), nil)
			if status != http.StatusUnprocessableEntity {
				t.Errorf("thresholds %s, farFrom %v: status %d %s, want 422", th, farFrom, status, raw)
				continue
			}
			if eb := decodeEnvelope(t, raw); eb.Code != api.CodeConfigInvalid || !strings.Contains(eb.Message, "closeMax") {
				t.Errorf("thresholds %s, farFrom %v: envelope %+v, want config_invalid naming closeMax", th, farFrom, eb)
			}
		}
	}
}
