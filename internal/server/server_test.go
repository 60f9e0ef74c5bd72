package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// --- HTTP test helpers ---------------------------------------------------

func doJSON(t *testing.T, client *http.Client, method, url string, body []byte, out any) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func uploadSampleScene(t *testing.T, client *http.Client, base string) datasetInfo {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.PortoAlegreScene().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var info datasetInfo
	status, raw := doJSON(t, client, "POST", base+"/datasets/scene", buf.Bytes(), &info)
	if status != http.StatusCreated {
		t.Fatalf("scene upload: %d %s", status, raw)
	}
	return info
}

func mineBody(t *testing.T, digest string, cfg core.Config) []byte {
	t.Helper()
	body, err := json.Marshal(MineRequest{Dataset: digest, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// --- End-to-end ----------------------------------------------------------

// TestEndToEndAsyncJobMatchesLibraryRun is the PR's acceptance path:
// upload the Porto Alegre scene, submit an async job, poll it to
// completion, and require the served result to be identical to
// qsrmine.Run (core.Run) on the same inputs; then re-request the same
// (dataset, config) and require a cache hit, asserted via the counters.
func TestEndToEndAsyncJobMatchesLibraryRun(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	info := uploadSampleScene(t, client, ts.URL+"/v1")
	cfg := core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.3, GenerateRules: true, MinConfidence: 0.7}

	// Submit the async job.
	var st JobStatus
	status, raw := doJSON(t, client, "POST", ts.URL+"/v1/jobs", mineBody(t, info.Digest, cfg), &st)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, raw)
	}
	if st.State != JobQueued && st.State != JobRunning {
		t.Fatalf("fresh job state = %q", st.State)
	}

	// Poll to completion.
	deadline := time.Now().Add(30 * time.Second)
	for st.State != JobDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		if status, raw = doJSON(t, client, "GET", ts.URL+"/v1/jobs/"+st.ID, nil, &st); status != http.StatusOK {
			t.Fatalf("poll: %d %s", status, raw)
		}
		if st.State == JobFailed || st.State == JobCancelled {
			t.Fatalf("job ended %q: %s", st.State, st.Error)
		}
	}
	if st.Result == nil {
		t.Fatal("done job carries no result")
	}

	// The reference: the library run on the same scene and config.
	want, err := core.Run(dataset.PortoAlegreScene(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result.Transactions != want.Result.NumTransactions ||
		st.Result.MinSupportCount != want.Result.MinSupportCount ||
		st.Result.PrunedSameFeature != want.Result.PrunedSameFeature {
		t.Errorf("headline numbers differ: %+v vs %+v", st.Result, want.Result)
	}
	if len(st.Result.Frequent) != len(want.Result.Frequent) {
		t.Fatalf("served %d itemsets, library mined %d", len(st.Result.Frequent), len(want.Result.Frequent))
	}
	for i, f := range want.Result.Frequent {
		got := st.Result.Frequent[i]
		if got.Support != f.Support || strings.Join(got.Items, "|") != strings.Join(f.Items.Names(want.DB.Dict), "|") {
			t.Fatalf("itemset %d differs: %v/%d vs %v/%d",
				i, got.Items, got.Support, f.Items.Names(want.DB.Dict), f.Support)
		}
	}
	if len(st.Result.Rules) != len(want.Rules) {
		t.Errorf("served %d rules, library generated %d", len(st.Result.Rules), len(want.Rules))
	}
	if st.Result.Cached {
		t.Error("first mining of a config must not be marked cached")
	}

	// A second identical request — this time synchronous — must be a
	// cache hit and not re-mine.
	var second MineResponse
	if status, raw = doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, info.Digest, cfg), &second); status != http.StatusOK {
		t.Fatalf("cached mine: %d %s", status, raw)
	}
	if !second.Cached {
		t.Error("identical request must be served from the result cache")
	}
	if len(second.Frequent) != len(st.Result.Frequent) {
		t.Error("cached response differs from the original")
	}
	var m ServerMetrics
	if status, raw = doJSON(t, client, "GET", ts.URL+"/v1/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: %d %s", status, raw)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Errorf("cache counters = %+v, want 1 hit / 1 miss", m.Cache)
	}
	if m.Obs.Counters["server.cache.hits"] != 1 {
		t.Errorf("trace counter server.cache.hits = %d", m.Obs.Counters["server.cache.hits"])
	}
	// The obs snapshot saw the pipeline stages of the one real run.
	if m.Obs.Counters["mine.frequent"] == 0 {
		t.Error("obs counters missing mining pass data")
	}
	// The extraction stage's filter-and-refine tallies flow through too:
	// exact relates performed and prepared geometries built.
	if m.Obs.Counters["extract.relates"] == 0 {
		t.Errorf("obs counters missing extract.relates (counters: %v)", m.Obs.Counters)
	}
	if m.Obs.Counters["extract.prepared.builds"] == 0 {
		t.Errorf("obs counters missing extract.prepared.builds (counters: %v)", m.Obs.Counters)
	}
	var sawMine bool
	for _, sr := range m.Obs.Stages {
		if sr.Name == "mine" {
			sawMine = true
		}
	}
	if !sawMine {
		t.Error("obs snapshot missing the mine stage span")
	}
	if m.Jobs.Done != 1 || m.Jobs.Submitted != 1 {
		t.Errorf("job stats = %+v", m.Jobs)
	}
	if m.Store.Entries != 1 {
		t.Errorf("store stats = %+v", m.Store)
	}

	// A config that differs (other minsup) misses the cache.
	other := cfg
	other.MinSupport = 0.5
	var third MineResponse
	if status, raw = doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, info.Digest, other), &third); status != http.StatusOK {
		t.Fatalf("third mine: %d %s", status, raw)
	}
	if third.Cached {
		t.Error("different config must not hit the cache")
	}
}

// TestMinConfidenceWithoutRulesSharesCacheEntry: only the rules stage
// reads minConfidence, so with rules off a request that sets it is
// served the cached result of one that does not: one mine, one cache
// hit, one entry.
func TestMinConfidenceWithoutRulesSharesCacheEntry(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	info := uploadSampleScene(t, client, ts.URL+"/v1")

	mine := func(cfg string) MineResponse {
		t.Helper()
		var resp MineResponse
		body := []byte(fmt.Sprintf(`{"dataset":%q,"config":%s}`, info.Digest, cfg))
		if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", body, &resp); status != http.StatusOK {
			t.Fatalf("mine %s: %d %s", cfg, status, raw)
		}
		return resp
	}
	first := mine(`{"minSupport":0.3}`)
	second := mine(`{"minSupport":0.3,"minConfidence":0.9}`)
	if !second.Cached {
		t.Error("minConfidence without rules must be served from the cache")
	}
	if c := s.trace.Counters(); c["server.mine.runs"] != 1 {
		t.Errorf("server.mine.runs = %d, want 1", c["server.mine.runs"])
	}
	if st := s.cache.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit and 1 entry", st)
	}
	second.Cached = false
	if !reflect.DeepEqual(first, second) {
		t.Error("the cached response differs from the first")
	}
}

// TestCancelRunningJobPromptAndLeakFree cancels a mid-run job via
// DELETE /jobs/{id} and requires (a) prompt termination and (b) no
// leaked goroutines — PR 3's leak-check pattern at the service level.
func TestCancelRunningJobPromptAndLeakFree(t *testing.T) {
	s := New(Options{Workers: 1})
	// Deterministic "long" mine: block until the job context is
	// cancelled, exactly like a heavy DFS that polls ctx.
	started := make(chan struct{}, 8)
	s.mineHook = func(ctx context.Context) error {
		started <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	body := []byte(`r1,a,b
r2,a,c
r3,b,c
`)
	var info datasetInfo
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/datasets/table", body, &info); status != http.StatusCreated {
		t.Fatalf("table upload: %d %s", status, raw)
	}

	before := runtime.NumGoroutine()
	var st JobStatus
	status, raw := doJSON(t, client, "POST", ts.URL+"/v1/jobs",
		mineBody(t, info.Digest, core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.5}), &st)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, raw)
	}
	<-started // the job is now provably mid-"DFS"

	if status, raw = doJSON(t, client, "DELETE", ts.URL+"/v1/jobs/"+st.ID, nil, nil); status != http.StatusOK {
		t.Fatalf("cancel: %d %s", status, raw)
	}
	j, ok := s.jobs.Get(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job did not terminate promptly")
	}
	if got := s.jobs.Status(j); got.State != JobCancelled {
		t.Fatalf("state = %q, want cancelled", got.State)
	}
	// GET after cancel reports the terminal state to pollers.
	if status, raw = doJSON(t, client, "GET", ts.URL+"/v1/jobs/"+st.ID, nil, &st); status != http.StatusOK || st.State != JobCancelled {
		t.Fatalf("poll after cancel: %d %s", status, raw)
	}
	// No goroutines may outlive the cancelled job (HTTP keep-alive
	// conns are reaped asynchronously, so poll briefly).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulShutdown pins the drain semantics: during Shutdown the
// in-flight job completes (within the drain deadline), new submissions
// and uploads get 503, and the listener closes cleanly.
func TestGracefulShutdown(t *testing.T) {
	s := New(Options{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.mineHook = func(ctx context.Context) error {
		started <- struct{}{}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	// Real listener + http.Server, exactly as cmd/qsrmined wires it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String() + "/v1"
	client := &http.Client{}

	var buf bytes.Buffer
	if err := dataset.PortoAlegreScene().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var info datasetInfo
	if status, raw := doJSON(t, client, "POST", base+"/datasets/scene", buf.Bytes(), &info); status != http.StatusCreated {
		t.Fatalf("upload: %d %s", status, raw)
	}
	body := mineBody(t, info.Digest, core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.3})
	var st JobStatus
	if status, raw := doJSON(t, client, "POST", base+"/jobs", body, &st); status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, raw)
	}
	<-started // job is mid-run

	// Begin draining with a generous deadline.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Wait until the drain flag is visible.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New submissions are rejected with 503 while the listener is up.
	if status, raw := doJSON(t, client, "POST", base+"/jobs", body, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d %s, want 503", status, raw)
	}
	if status, _ := doJSON(t, client, "POST", base+"/mine", body, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("mine while draining: %d, want 503", status)
	}
	if status, _ := doJSON(t, client, "POST", base+"/datasets/scene", buf.Bytes(), nil); status != http.StatusServiceUnavailable {
		t.Fatalf("upload while draining: %d, want 503", status)
	}
	// Health flips to draining/503 so load balancers stop routing.
	if status, raw := doJSON(t, client, "GET", base+"/healthz", nil, nil); status != http.StatusServiceUnavailable || !strings.Contains(raw, "draining") {
		t.Fatalf("healthz while draining: %d %s", status, raw)
	}
	// Polling the in-flight job still works during the drain.
	if status, _ := doJSON(t, client, "GET", base+"/jobs/"+st.ID, nil, &st); status != http.StatusOK {
		t.Fatalf("poll while draining: %d", status)
	}

	// Let the in-flight job finish: the drain completes without error.
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	j, _ := s.jobs.Get(st.ID)
	if got := s.jobs.Status(j); got.State != JobDone {
		t.Fatalf("in-flight job ended %q (err %q), want done", got.State, got.Error)
	}

	// Close the listener cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		t.Fatalf("listener close: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 500*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestShutdownDeadlineCancelsStuckJob: when the drain deadline expires
// first, the running job is cancelled through its context and shutdown
// still returns (with ctx.Err()) instead of hanging.
func TestShutdownDeadlineCancelsStuckJob(t *testing.T) {
	s := New(Options{Workers: 1})
	started := make(chan struct{}, 1)
	s.mineHook = func(ctx context.Context) error {
		started <- struct{}{}
		<-ctx.Done() // never finishes on its own
		return ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	body := []byte("r1,a,b\n")
	var info datasetInfo
	doJSON(t, client, "POST", ts.URL+"/v1/datasets/table", body, &info)
	var st JobStatus
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/jobs",
		mineBody(t, info.Digest, core.Config{MinSupport: 0.5}), &st); status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, raw)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	err := s.Shutdown(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(begin); took > 5*time.Second {
		t.Fatalf("shutdown with stuck job took %v", took)
	}
	j, _ := s.jobs.Get(st.ID)
	if got := s.jobs.Status(j); got.State != JobCancelled {
		t.Fatalf("stuck job state = %q, want cancelled", got.State)
	}
}

// TestRequestValidationAndErrors covers the unhappy HTTP paths.
func TestRequestValidationAndErrors(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	cases := []struct {
		name, method, path string
		body               string
		wantStatus         int
		wantErr            string
	}{
		{"mine unknown dataset", "POST", "/v1/mine", `{"dataset":"beef","config":{"minSupport":0.5}}`, 404, "unknown dataset"},
		{"job unknown dataset", "POST", "/v1/jobs", `{"dataset":"beef","config":{"minSupport":0.5}}`, 404, "unknown dataset"},
		{"mine bad algorithm", "POST", "/v1/mine", `{"dataset":"beef","config":{"algorithm":"quantum","minSupport":0.5}}`, 400, "unknown algorithm"},
		{"mine counting field", "POST", "/v1/mine", `{"dataset":"beef","config":{"minSupport":0.5,"counting":"vertical"}}`, 400, "counting"},
		{"job counting field", "POST", "/v1/jobs", `{"dataset":"beef","config":{"minSupport":0.5,"counting":"vertical"}}`, 400, "counting"},
		{"mine parallelism field", "POST", "/v1/mine", `{"dataset":"beef","config":{"minSupport":0.5,"parallelism":2}}`, 400, `unknown field \"parallelism\"`},
		{"mine extraction parallelism field", "POST", "/v1/mine", `{"dataset":"beef","config":{"minSupport":0.5,"extraction":{"topological":true,"parallelism":2}}}`, 400, `unknown field \"parallelism\"`},
		{"colocate parallelism field", "POST", "/v1/colocate", `{"dataset":"beef","config":{"distance":1,"minPI":0.5,"parallelism":2}}`, 400, `unknown field \"parallelism\"`},
		{"mine unknown body field", "POST", "/v1/mine", `{"dataset":"beef","config":{"minSupport":0.5},"cfg":{}}`, 400, "unknown field"},
		{"mine missing dataset", "POST", "/v1/mine", `{"config":{"minSupport":0.5}}`, 400, "dataset"},
		{"mine bad minsup", "POST", "/v1/mine", `{"dataset":"beef","config":{"minSupport":7}}`, 400, "minSupport"},
		{"mine garbage body", "POST", "/v1/mine", `}{`, 400, "decoding"},
		{"scene garbage body", "POST", "/v1/datasets/scene", `not json`, 400, "decoding"},
		{"scene bad wkt", "POST", "/v1/datasets/scene", `{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT(huh)"}]}}`, 400, "parsing WKT"},
		{"table empty", "POST", "/v1/datasets/table", "\n# nothing\n", 400, "no transactions"},
		{"table bad row", "POST", "/v1/datasets/table", ",a,b\n", 400, "empty reference ID"},
		{"poll unknown job", "GET", "/v1/jobs/j777", "", 404, "unknown job"},
		{"cancel unknown job", "DELETE", "/v1/jobs/j777", "", 404, "unknown job"},
		{"dataset metadata unknown", "GET", "/v1/datasets/beef", "", 404, "unknown dataset"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := doJSON(t, client, tc.method, ts.URL+tc.path, []byte(tc.body), nil)
			if status != tc.wantStatus {
				t.Fatalf("%s %s: status %d %s, want %d", tc.method, tc.path, status, raw, tc.wantStatus)
			}
			if !strings.Contains(raw, tc.wantErr) {
				t.Errorf("body %q missing %q", raw, tc.wantErr)
			}
		})
	}

	// A config error surfaced at run time (co-location needs a scene,
	// not a table) maps to 422.
	body := []byte("r1,a,b\nr2,a,b\n")
	var info datasetInfo
	doJSON(t, client, "POST", ts.URL+"/v1/datasets/table", body, &info)
	req := fmt.Sprintf(`{"dataset":%q,"config":{"distance":1,"minPI":0.5}}`, info.Digest)
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/colocate", []byte(req), nil); status != http.StatusUnprocessableEntity {
		t.Errorf("run-time config error: %d %s, want 422", status, raw)
	}
	// Upload body cap: 413 with the limit named.
	small := New(Options{MaxUploadBytes: 16})
	tss := httptest.NewServer(small.Handler())
	defer tss.Close()
	defer small.Shutdown(context.Background())
	if status, raw := doJSON(t, client, "POST", tss.URL+"/v1/datasets/table", bytes.Repeat([]byte("a"), 64), nil); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: %d %s, want 413", status, raw)
	}
}

// TestHealthzReportsVersion: /healthz answers ok with the build stamp.
func TestHealthzReportsVersion(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	var h healthz
	if status, raw := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/healthz", nil, &h); status != http.StatusOK {
		t.Fatalf("healthz: %d %s", status, raw)
	}
	if h.Status != "ok" || h.Version == "" {
		t.Errorf("healthz = %+v", h)
	}
	if !strings.Contains(h.Version, runtime.Version()) {
		t.Errorf("version %q missing the Go version stamp", h.Version)
	}
}

// TestMineRequestTimeout: a request-level deadline cancels a stuck mine
// and maps to 504 on the synchronous path and a failed job on the
// async path.
func TestMineRequestTimeout(t *testing.T) {
	s := New(Options{Workers: 1})
	s.mineHook = func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	var info datasetInfo
	doJSON(t, client, "POST", ts.URL+"/v1/datasets/table", []byte("r1,a,b\n"), &info)
	req := fmt.Sprintf(`{"dataset":%q,"config":{"minSupport":0.5},"timeoutMillis":30}`, info.Digest)
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", []byte(req), nil); status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out mine: %d %s, want 504", status, raw)
	}
	var st JobStatus
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/jobs", []byte(req), &st); status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, raw)
	}
	j, _ := s.jobs.Get(st.ID)
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("timed-out job did not finish")
	}
	if got := s.jobs.Status(j); got.State != JobFailed || !strings.Contains(got.Error, "deadline") {
		t.Fatalf("timed-out job = %+v, want failed with a deadline error", got)
	}
}
