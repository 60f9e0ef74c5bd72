package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/api"
	"repro/internal/colocation"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
)

func colocateBody(t *testing.T, digest string, cfg colocation.Config) []byte {
	t.Helper()
	body, err := json.Marshal(api.ColocateRequest{Dataset: digest, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestColocateEndToEnd: POST /v1/colocate on the sample scene matches a
// direct engine run, the second identical request is a counter-verified
// cache hit, and the cached response round-trips byte-equal.
func TestColocateEndToEnd(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	info := uploadSampleScene(t, ts.Client(), ts.URL+"/v1")
	cfg := colocation.Config{Distance: 3, MinPI: 0.2}
	body := colocateBody(t, info.Digest, cfg)

	var resp api.MineResponse
	status, raw := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/colocate", body, &resp)
	if status != http.StatusOK {
		t.Fatalf("colocate: %d %s", status, raw)
	}
	if resp.Algorithm != "colocation" || resp.Colocation == nil {
		t.Fatalf("response missing colocation block: %+v", resp)
	}
	want, err := colocation.Mine(dataset.PortoAlegreScene(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Colocation.Prevalent) != len(want.Prevalent) {
		t.Fatalf("served %d prevalent, engine says %d", len(resp.Colocation.Prevalent), len(want.Prevalent))
	}
	for i, p := range want.Prevalent {
		got := resp.Colocation.Prevalent[i]
		if !reflect.DeepEqual(got.Types, p.Types) || got.ParticipationIndex != p.PI || got.RowInstances != p.Rows {
			t.Fatalf("pattern %d: served %+v, engine %+v", i, got, p)
		}
	}
	if resp.Colocation.RefinedPairs != want.RefinedPairs || resp.Colocation.Instances != want.Instances {
		t.Fatalf("counters diverge: served %+v, engine %+v", resp.Colocation, want)
	}

	// Re-submission: cache hit, no second engine run.
	runs := s.trace.Counter("server.colocate.runs")
	hits := s.trace.Counter("server.cache.hits")
	var again api.MineResponse
	status, raw = doJSON(t, ts.Client(), "POST", ts.URL+"/v1/colocate", body, &again)
	if status != http.StatusOK {
		t.Fatalf("colocate again: %d %s", status, raw)
	}
	if !again.Cached {
		t.Fatalf("second response not marked cached: %s", raw)
	}
	if got := s.trace.Counter("server.colocate.runs"); got != runs {
		t.Fatalf("re-submission re-ran the engine: runs %d -> %d", runs, got)
	}
	if got := s.trace.Counter("server.cache.hits"); got != hits+1 {
		t.Fatalf("cache hit counter %d -> %d, want +1", hits, got)
	}
	again.Cached = false
	if !reflect.DeepEqual(again, resp) {
		t.Fatalf("cached response diverged from original")
	}
}

// TestColocateValidation: the rejection surface of POST /v1/colocate.
func TestColocateValidation(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	info := uploadSampleScene(t, ts.Client(), ts.URL+"/v1")

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"no dataset", `{"config":{"distance":1,"minPI":0.5}}`, http.StatusBadRequest},
		{"bad config", fmt.Sprintf(`{"dataset":%q,"config":{"distance":-1,"minPI":0.5}}`, info.Digest), http.StatusBadRequest},
		{"bad minPI", fmt.Sprintf(`{"dataset":%q,"config":{"distance":1,"minPI":0}}`, info.Digest), http.StatusBadRequest},
		{"unknown field", fmt.Sprintf(`{"dataset":%q,"config":{"distance":1,"minPI":0.5},"nope":1}`, info.Digest), http.StatusBadRequest},
		{"unknown dataset", `{"dataset":"feedbeef","config":{"distance":1,"minPI":0.5}}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/colocate", []byte(tc.body), nil)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (%s)", status, tc.status, raw)
			}
		})
	}

	// A table dataset is rejected as a config error.
	tableCSV := []byte("r1,a,b\nr2,a,c\n")
	var tinfo datasetInfo
	if status, raw := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/datasets/table", tableCSV, &tinfo); status != http.StatusCreated {
		t.Fatalf("table upload: %d %s", status, raw)
	}
	status, raw := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/colocate",
		colocateBody(t, tinfo.Digest, colocation.Config{Distance: 1, MinPI: 0.5}), nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("table colocate: %d %s, want 422", status, raw)
	}

	// A colocate field on /v1/mine is turned away toward /v1/colocate.
	status, raw = doJSON(t, ts.Client(), "POST", ts.URL+"/v1/mine",
		[]byte(fmt.Sprintf(`{"dataset":%q,"colocate":{"distance":1,"minPI":0.5}}`, info.Digest)), nil)
	if status != http.StatusBadRequest {
		t.Fatalf("mine with colocate: %d %s, want 400", status, raw)
	}
}

// TestColocateAsyncJob: POST /v1/colocate/jobs rides the shared job
// manager and the /v1/jobs/{id} poll surface, and its result matches
// the sync endpoint's.
func TestColocateAsyncJob(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	info := uploadSampleScene(t, ts.Client(), ts.URL+"/v1")
	body := colocateBody(t, info.Digest, colocation.Config{Distance: 3, MinPI: 0.2})

	var st api.JobStatus
	status, raw := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/colocate/jobs", body, &st)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, raw)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %s", st.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
		if status, raw = doJSON(t, ts.Client(), "GET", ts.URL+"/v1/jobs/"+st.ID, nil, &st); status != http.StatusOK {
			t.Fatalf("poll: %d %s", status, raw)
		}
	}
	if st.State != api.JobDone || st.Result == nil || st.Result.Colocation == nil {
		t.Fatalf("job ended %s (%s); result %+v", st.State, st.Error, st.Result)
	}

	var sync api.MineResponse
	if status, raw = doJSON(t, ts.Client(), "POST", ts.URL+"/v1/colocate", body, &sync); status != http.StatusOK {
		t.Fatalf("sync: %d %s", status, raw)
	}
	// The sync request after the job is a cache hit on the same key —
	// the two surfaces share the result cache.
	if !sync.Cached {
		t.Fatalf("sync after job not served from cache")
	}
	if !reflect.DeepEqual(sync.Colocation, st.Result.Colocation) {
		t.Fatalf("job and sync results diverge:\n job %+v\nsync %+v", st.Result.Colocation, sync.Colocation)
	}
}

// TestColocateCacheKeyDisjoint: colocate and transaction-mining keys
// for one dataset can never collide, and distinct colocate configs get
// distinct keys.
func TestColocateCacheKeyDisjoint(t *testing.T) {
	mineKey, err := CacheKey("d", core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	colocKey, err := ColocateCacheKey("d", colocation.Config{Distance: 1, MinPI: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if mineKey == colocKey {
		t.Fatalf("keys collide: %q", mineKey)
	}
	other, err := ColocateCacheKey("d", colocation.Config{Distance: 2, MinPI: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if other == colocKey {
		t.Fatalf("distinct configs share key %q", other)
	}
	same, err := ColocateCacheKey("d", colocation.Config{Distance: 1, MinPI: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if same != colocKey {
		t.Fatalf("identical configs key differently: %q vs %q", same, colocKey)
	}
	// TopK changes the served patterns, so it must fork the key.
	topk, err := ColocateCacheKey("d", colocation.Config{Distance: 1, MinPI: 0.5, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if topk == colocKey {
		t.Fatalf("topK config shares key %q with the unbounded config", topk)
	}
}

// TestCacheKeysGolden pins the exact bytes of both result-cache keys.
// Persisted -data-dir results are filed under these keys, so a change in
// their encoding would silently orphan every stored result. The golden
// strings are what the keys were before the co-location engine knob,
// the FP-growth algorithm and the pool widths were removed; removing
// them must not move any surviving key. With rules off, minConfidence
// keys as if unset, since only the rules stage reads it.
func TestCacheKeysGolden(t *testing.T) {
	mine := []struct {
		cfg  core.Config
		want string
	}{
		{core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.3},
			`d1|{"algorithm":"eclat-kc+","minSupport":0.3}`},
		{core.Config{Algorithm: core.AlgAprioriKC, MinSupport: 0.25,
			Dependencies:  []mining.Pair{{A: "y", B: "x"}, {A: "p", B: "q"}},
			GenerateRules: true, MinConfidence: 0.7, PostFilter: core.ClosedFilter},
			`d1|{"algorithm":"apriori-kc","minSupport":0.25,"dependencies":[{"a":"p","b":"q"},{"a":"x","b":"y"}],"minConfidence":0.7,"generateRules":true,"postFilter":"closed"}`},
		{core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.3, MinConfidence: 0.9},
			`d1|{"algorithm":"apriori-kc+","minSupport":0.3}`},
	}
	for _, tc := range mine {
		got, err := CacheKey("d1", tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("CacheKey moved:\n got %s\nwant %s", got, tc.want)
		}
	}
	coloc := []struct {
		cfg  colocation.Config
		want string
	}{
		{colocation.Config{Distance: 3, MinPI: 0.2},
			`d2|{"colocate":{"distance":3,"minPI":0.2}}`},
		{colocation.Config{Distance: 1, MinPI: 0.5, MaxSize: 3, TopK: 2},
			`d2|{"colocate":{"distance":1,"minPI":0.5,"maxSize":3,"topK":2}}`},
	}
	for _, tc := range coloc {
		got, err := ColocateCacheKey("d2", tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("ColocateCacheKey moved:\n got %s\nwant %s", got, tc.want)
		}
	}
}
