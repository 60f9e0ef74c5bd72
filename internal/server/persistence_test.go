package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/server/persist"
)

// --- Satellite: eviction must invalidate derived state -------------------

// TestStoreEvictionInvalidatesDerivedState pins the eviction-invalidation
// fix: a dataset the store's LRU pushes out under capacity pressure must
// take its cached mining results and delta-pipeline artefacts with it,
// counted under server.cache.invalidated — exactly like an explicit
// DELETE. Before the fix, evicted digests silently pinned stale results.
func TestStoreEvictionInvalidatesDerivedState(t *testing.T) {
	s := New(Options{StoreMaxEntries: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	var a datasetInfo
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/datasets/table", []byte("r1,a,b\nr2,a,c\n"), &a); status != http.StatusCreated {
		t.Fatalf("upload A: %d %s", status, raw)
	}
	cfg := core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.5}
	var first MineResponse
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", mineBody(t, a.Digest, cfg), &first); status != http.StatusOK {
		t.Fatalf("mine A: %d %s", status, raw)
	}
	// Seed delta-pipeline state derived from A.
	s.deltas.recordLineage(a.Digest, "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", nil)
	s.deltas.putState(a.Digest+"|opts", nil)
	s.deltas.putEncoding("", a.Digest, &dataset.Encoding{})
	key, err := CacheKey(a.Digest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cache.Get(key); !ok {
		t.Fatal("mine did not populate the result cache")
	}

	// Upload B: the 1-entry store evicts A.
	var b datasetInfo
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/datasets/table", []byte("r9,x,y\n"), &b); status != http.StatusCreated {
		t.Fatalf("upload B: %d %s", status, raw)
	}
	if st := s.store.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("store stats = %+v, want 1 entry / 1 eviction", st)
	}
	if _, ok := s.cache.Get(key); ok {
		t.Error("evicted dataset's cached result survived")
	}
	if _, _, ok := s.deltas.parentOf(a.Digest); ok {
		t.Error("evicted dataset's lineage record survived")
	}
	if s.deltas.encoding(a.Digest) != nil {
		t.Error("evicted dataset's retained encoding survived")
	}
	var m ServerMetrics
	if status, raw := doJSON(t, client, "GET", ts.URL+"/v1/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: %d %s", status, raw)
	}
	if got := m.Obs.Counters["server.cache.invalidated"]; got != 1 {
		t.Errorf("server.cache.invalidated = %d, want 1", got)
	}
}

// TestStoreListDoesNotTouchRecency pins the List fix at the store level:
// enumerating datasets between two uploads must not protect an old entry
// from eviction.
func TestStoreListDoesNotTouchRecency(t *testing.T) {
	s := NewStore(2, 0)
	old := putTable(t, s, tableBody("old"))
	putTable(t, s, tableBody("new"))
	if got := s.List(); len(got) != 2 {
		t.Fatalf("List = %d entries, want 2", len(got))
	}
	// Had List refreshed "old", this upload would evict "new" instead.
	putTable(t, s, tableBody("next"))
	if _, ok := s.Get(old.Digest); ok {
		t.Error("List refreshed recency: oldest entry survived the eviction")
	}
}

// --- WAL replay through the job manager ----------------------------------

// TestJobManagerRecover replays a journal holding one job per fate:
// finished (kept terminal), in-flight at the crash (reported lost), and
// submitted-but-never-started (re-enqueued and run to completion).
func TestJobManagerRecover(t *testing.T) {
	dir, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	req := &MineRequest{Dataset: "d1"}
	now := time.Now()
	for _, rec := range []persist.JobRecord{
		{Type: persist.RecSubmitted, ID: "j-done", Time: now, Req: req},
		{Type: persist.RecStarted, ID: "j-done", Time: now},
		{Type: persist.RecFinished, ID: "j-done", Time: now, State: JobDone},
		{Type: persist.RecSubmitted, ID: "j-inflight", Time: now, Req: req},
		{Type: persist.RecStarted, ID: "j-inflight", Time: now},
		{Type: persist.RecSubmitted, ID: "j-queued", Time: now, Req: req},
	} {
		if err := dir.AppendJob(rec); err != nil {
			t.Fatal(err)
		}
	}

	m := NewJobManager(context.Background(), 1, 4, func(ctx context.Context, req MineRequest) (*MineResponse, error) {
		return &MineResponse{Dataset: req.Dataset, Transactions: 42}, nil
	})
	defer m.Shutdown(context.Background())
	if err := m.Recover(dir); err != nil {
		t.Fatal(err)
	}

	// The finished job kept its terminal state (result bodies live in
	// the result cache, not the journal).
	jd, ok := m.Get("j-done")
	if !ok {
		t.Fatal("terminal job forgotten")
	}
	if st := m.Status(jd); st.State != JobDone || st.Lost || st.Result != nil {
		t.Errorf("terminal job = %+v", st)
	}

	// The in-flight job is failed with the lost marker.
	ji, ok := m.Get("j-inflight")
	if !ok {
		t.Fatal("in-flight job forgotten")
	}
	if st := m.Status(ji); st.State != JobFailed || !st.Lost || !strings.Contains(st.Error, "lost") {
		t.Errorf("in-flight job = %+v, want failed+lost", st)
	}

	// The queued job re-entered the queue under its original ID and ran.
	jq, ok := m.Get("j-queued")
	if !ok {
		t.Fatal("queued job forgotten")
	}
	waitState(t, m, jq, JobDone)
	if st := m.Status(jq); st.Result == nil || st.Result.Transactions != 42 {
		t.Errorf("recovered job result = %+v", st.Result)
	}

	if recovered, lost := m.RecoveryStats(); recovered != 1 || lost != 1 {
		t.Errorf("recovery stats = %d/%d, want 1 recovered / 1 lost", recovered, lost)
	}

	// The compacted journal replays to the same picture, now including
	// the recovered job's own completion.
	recs, err := dir.ReplayJobs()
	if err != nil {
		t.Fatal(err)
	}
	var sawQueuedDone bool
	for _, rec := range recs {
		if rec.ID == "j-queued" && rec.Type == persist.RecFinished && rec.State == JobDone {
			sawQueuedDone = true
		}
	}
	if !sawQueuedDone {
		t.Errorf("compacted journal missing the recovered job's completion: %+v", recs)
	}
}

// TestJobManagerRecoverQueueOverflow: recovery must not silently drop a
// journaled submission that no longer fits the queue — it is reported
// failed with the lost marker instead.
func TestJobManagerRecoverQueueOverflow(t *testing.T) {
	dir, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	req := &MineRequest{Dataset: "d1"}
	for _, id := range []string{"j-q1", "j-q2"} {
		if err := dir.AppendJob(persist.JobRecord{Type: persist.RecSubmitted, ID: id, Time: time.Now(), Req: req}); err != nil {
			t.Fatal(err)
		}
	}

	started := make(chan string, 8)
	release := make(chan struct{})
	m := NewJobManager(context.Background(), 1, 1, blockingRun(started, release))
	defer m.Shutdown(context.Background())
	// Fill the worker and the 1-slot queue before recovery.
	if _, err := m.Submit(MineRequest{Dataset: "live1"}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit(MineRequest{Dataset: "live2"}); err != nil {
		t.Fatal(err)
	}

	if err := m.Recover(dir); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j-q1", "j-q2"} {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("overflowed job %s vanished", id)
		}
		if st := m.Status(j); st.State != JobFailed || !st.Lost || !strings.Contains(st.Error, "queue full") {
			t.Errorf("overflowed job %s = %+v, want failed+lost (queue full)", id, st)
		}
	}
	if recovered, lost := m.RecoveryStats(); recovered != 0 || lost != 2 {
		t.Errorf("recovery stats = %d/%d, want 0 recovered / 2 lost", recovered, lost)
	}
	close(release)
}

// TestJobManagerRecoverUndecodableRequest: a journal written by a build
// that accepted an algorithm this one rejects (testdata holds one with
// an FP-growth job) must not cost any other job. The well-formed record whose request no longer decodes becomes a
// failed job naming the decode error; a line that is valid JSON but no
// record is skipped; every later record still replays, so the queued
// job after them runs; and nothing counts as a torn tail. A restart on
// the compacted journal reports the same failure.
func TestJobManagerRecoverUndecodableRequest(t *testing.T) {
	journal, err := os.ReadFile("testdata/previous_build_jobs.wal")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "jobs.wal"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	dir, err := persist.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	var ran atomic.Int64
	run := func(ctx context.Context, req MineRequest) (*MineResponse, error) {
		ran.Add(1)
		return &MineResponse{Dataset: req.Dataset, Transactions: 7}, nil
	}
	m := NewJobManager(context.Background(), 1, 4, run)
	defer m.Shutdown(context.Background())
	if err := m.Recover(dir); err != nil {
		t.Fatal(err)
	}

	old, ok := m.Get("j-old")
	if !ok {
		t.Fatal("job with the undecodable request vanished")
	}
	st := m.Status(old)
	if st.State != JobFailed || st.Lost || !strings.Contains(st.Error, "unknown algorithm") || st.Dataset != "d-old" {
		t.Errorf("undecodable job = %+v, want failed naming the algorithm, not lost", st)
	}
	good, ok := m.Get("j-good")
	if !ok {
		t.Fatal("valid job after the undecodable record was dropped")
	}
	waitState(t, m, good, JobDone)
	if got := m.Status(good); got.Result == nil || got.Result.Dataset != "d-good" {
		t.Errorf("recovered job = %+v", got)
	}
	if ran.Load() != 1 {
		t.Errorf("ran %d jobs, want only the valid one", ran.Load())
	}
	if recovered, lost := m.RecoveryStats(); recovered != 1 || lost != 0 {
		t.Errorf("recovery stats = %d/%d, want 1 recovered / 0 lost", recovered, lost)
	}
	if st := dir.PersistStats(); st.WALTruncated != 0 {
		t.Errorf("walTruncated = %d, want 0: no line was torn", st.WALTruncated)
	}

	// The compacted journal keeps the failure across another restart.
	m2 := NewJobManager(context.Background(), 1, 4, run)
	defer m2.Shutdown(context.Background())
	if err := m2.Recover(dir); err != nil {
		t.Fatal(err)
	}
	old2, ok := m2.Get("j-old")
	if !ok {
		t.Fatal("failed job forgotten after compaction")
	}
	if st := m2.Status(old2); st.State != JobFailed || !strings.Contains(st.Error, "unknown algorithm") {
		t.Errorf("after second restart = %+v", st)
	}
}

// --- End-to-end restart ---------------------------------------------------

// TestServerRestartDurability is the PR's acceptance path: against a
// -data-dir server, upload a scene, mine it synchronously, then crash
// the process (abandoned without Shutdown — no terminal journal records)
// with one job mid-run and one queued. A second server on the same
// directory must serve the dataset by digest (lazy re-parse), report the
// in-flight job failed with lost: true, finish the queued job under its
// original ID, and serve the persisted result as a verified cache hit.
func TestServerRestartDurability(t *testing.T) {
	root := t.TempDir()
	dir1, err := persist.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer dir1.Close()

	s1 := New(Options{Workers: 1, Persistence: dir1})
	// Unblock s1's stuck job at the end (its journal handle points at the
	// pre-compaction inode by then, so the late records land nowhere).
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		s1.Shutdown(ctx)
	}()
	var block atomic.Bool
	blocked := make(chan struct{}, 8)
	s1.mineHook = func(ctx context.Context) error {
		if !block.Load() {
			return nil
		}
		blocked <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	}
	ts1 := httptest.NewServer(s1.Handler())
	client := ts1.Client()

	info := uploadSampleScene(t, client, ts1.URL+"/v1")
	cfgMined := core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.3}
	var before MineResponse
	if status, raw := doJSON(t, client, "POST", ts1.URL+"/v1/mine", mineBody(t, info.Digest, cfgMined), &before); status != http.StatusOK {
		t.Fatalf("pre-crash mine: %d %s", status, raw)
	}

	// One job mid-run, one queued behind the single worker.
	block.Store(true)
	var inflight, queued JobStatus
	if status, raw := doJSON(t, client, "POST", ts1.URL+"/v1/jobs",
		mineBody(t, info.Digest, core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.4}), &inflight); status != http.StatusAccepted {
		t.Fatalf("submit in-flight job: %d %s", status, raw)
	}
	<-blocked // its started record is journaled before the hook runs
	if status, raw := doJSON(t, client, "POST", ts1.URL+"/v1/jobs",
		mineBody(t, info.Digest, core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.5}), &queued); status != http.StatusAccepted {
		t.Fatalf("submit queued job: %d %s", status, raw)
	}
	// Crash: close the listener and abandon s1 without Shutdown, so the
	// journal ends with started-but-unfinished and queued records.
	ts1.Close()

	dir2, err := persist.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer dir2.Close()
	s2 := New(Options{Workers: 1, Persistence: dir2})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	client2 := ts2.Client()

	// The dataset listing knows the digest before any body is re-read.
	var list struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if status, raw := doJSON(t, client2, "GET", ts2.URL+"/v1/datasets", nil, &list); status != http.StatusOK {
		t.Fatalf("list: %d %s", status, raw)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].Digest != info.Digest || list.Datasets[0].Rows != info.Rows {
		t.Fatalf("restarted listing = %+v, want the persisted dataset", list.Datasets)
	}
	// Fetching by digest lazily re-parses the persisted body.
	var meta datasetInfo
	if status, raw := doJSON(t, client2, "GET", ts2.URL+"/v1/datasets/"+info.Digest, nil, &meta); status != http.StatusOK {
		t.Fatalf("dataset after restart: %d %s", status, raw)
	}
	if meta.Rows != info.Rows || meta.Bytes != info.Bytes {
		t.Errorf("reloaded metadata = %+v, want %+v", meta, info)
	}

	// The in-flight job is failed + lost; the queued one finishes under
	// its original ID.
	var st JobStatus
	if status, raw := doJSON(t, client2, "GET", ts2.URL+"/v1/jobs/"+inflight.ID, nil, &st); status != http.StatusOK {
		t.Fatalf("poll lost job: %d %s", status, raw)
	}
	if st.State != JobFailed || !st.Lost || !strings.Contains(st.Error, "lost") {
		t.Fatalf("crashed-in-flight job = %+v, want failed+lost", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st = JobStatus{} // omitempty fields must not leak between polls
		if status, raw := doJSON(t, client2, "GET", ts2.URL+"/v1/jobs/"+queued.ID, nil, &st); status != http.StatusOK {
			t.Fatalf("poll recovered job: %d %s", status, raw)
		}
		if st.State == JobDone {
			break
		}
		if st.State == JobFailed || st.State == JobCancelled || time.Now().After(deadline) {
			t.Fatalf("recovered job = %+v, want done", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Result == nil || st.Lost {
		t.Errorf("recovered job = %+v, want a result and no lost marker", st)
	}

	// The pre-crash result is served from disk, digest chain verified.
	var after MineResponse
	if status, raw := doJSON(t, client2, "POST", ts2.URL+"/v1/mine", mineBody(t, info.Digest, cfgMined), &after); status != http.StatusOK {
		t.Fatalf("post-restart mine: %d %s", status, raw)
	}
	if !after.Cached {
		t.Error("persisted result was recomputed instead of served from disk")
	}
	if len(after.Frequent) != len(before.Frequent) || after.Transactions != before.Transactions {
		t.Errorf("persisted result differs: %d itemsets / %d transactions, want %d / %d",
			len(after.Frequent), after.Transactions, len(before.Frequent), before.Transactions)
	}

	var m ServerMetrics
	if status, raw := doJSON(t, client2, "GET", ts2.URL+"/v1/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: %d %s", status, raw)
	}
	if m.Persist == nil || !m.Persist.Enabled {
		t.Fatalf("metrics missing the persist block: %+v", m.Persist)
	}
	if m.Persist.JobsLost != 1 || m.Persist.JobsRecovered != 1 {
		t.Errorf("persist jobs = %+v, want 1 lost / 1 recovered", m.Persist)
	}
	if m.Persist.VerifyFailures != 0 {
		t.Errorf("verifyFailures = %d, want 0", m.Persist.VerifyFailures)
	}
	if m.Persist.ResultHits < 1 || m.Obs.Counters["server.persist.result_hits"] < 1 {
		t.Errorf("persisted result hit not counted: %+v / %v", m.Persist, m.Obs.Counters)
	}
	if m.Persist.Datasets != 1 {
		t.Errorf("persisted datasets = %d, want 1", m.Persist.Datasets)
	}

	// Healthz advertises the durable role.
	var h healthz
	if status, raw := doJSON(t, client2, "GET", ts2.URL+"/v1/healthz", nil, &h); status != http.StatusOK || h.Persist != "disk" {
		t.Fatalf("healthz = %d %s %+v, want persist: disk", status, raw, h)
	}
}

// TestUnparseablePersistedDatasetIsDiscarded: a persisted scene whose
// bytes hash to their address but no longer parse (saved with trailing
// bytes, which an upload now refuses) is listed until a request names
// it. That request discards it from the disk tier as a verify failure;
// it and the next three answer 404, the body is read once
// (DatasetReloads), and the listing drops the entry.
func TestUnparseablePersistedDatasetIsDiscarded(t *testing.T) {
	dir, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	body := append(sampleSceneJSON(t), " trailing"...)
	digest := Digest(body)
	if err := dir.SaveDataset(digest, body, KindScene, 6); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Persistence: dir})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	listed := func() bool {
		t.Helper()
		var list struct{ Datasets []datasetInfo }
		if status, raw := doJSON(t, client, "GET", ts.URL+"/v1/datasets", nil, &list); status != http.StatusOK {
			t.Fatalf("list: %d %s", status, raw)
		}
		for _, info := range list.Datasets {
			if info.Digest == digest {
				return true
			}
		}
		return false
	}
	if !listed() {
		t.Fatal("the persisted scene is not listed before any request names it")
	}
	for i := 0; i < 4; i++ {
		if status, raw := doJSON(t, client, "GET", ts.URL+"/v1/datasets/"+digest, nil, nil); status != http.StatusNotFound {
			t.Fatalf("request %d: %d %s, want 404", i, status, raw)
		}
	}
	if st := dir.PersistStats(); st.DatasetReloads != 1 || st.VerifyFailures != 1 || st.Datasets != 0 {
		t.Errorf("persist stats = %+v, want 1 dataset reload, 1 verify failure and no dataset left", st)
	}
	if listed() {
		t.Error("the unparseable scene is still listed")
	}
}

// TestPersistedResultVerifyFailureRecomputes corrupts a persisted result
// on disk between two server generations: the restarted server must
// refuse to serve it (counting the verification failure), recompute, and
// re-persist a good entry.
func TestPersistedResultVerifyFailureRecomputes(t *testing.T) {
	root := t.TempDir()
	dir1, err := persist.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Persistence: dir1})
	ts1 := httptest.NewServer(s1.Handler())
	client := ts1.Client()

	var info datasetInfo
	if status, raw := doJSON(t, client, "POST", ts1.URL+"/v1/datasets/table", []byte("r1,a,b\nr2,a,b\nr3,a,c\n"), &info); status != http.StatusCreated {
		t.Fatalf("upload: %d %s", status, raw)
	}
	cfg := core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.5}
	var before MineResponse
	if status, raw := doJSON(t, client, "POST", ts1.URL+"/v1/mine", mineBody(t, info.Digest, cfg), &before); status != http.StatusOK {
		t.Fatalf("mine: %d %s", status, raw)
	}
	s1.Shutdown(context.Background())
	ts1.Close()
	dir1.Close()

	// Corrupt the one persisted result.
	files, err := filepath.Glob(filepath.Join(root, "results", "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("persisted results = %v (%v), want exactly 1", files, err)
	}
	if err := os.WriteFile(files[0], []byte(`{"chain":{"dataset":"bad"},"response":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	dir2, err := persist.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer dir2.Close()
	s2 := New(Options{Persistence: dir2})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	var resp MineResponse
	if status, raw := doJSON(t, ts2.Client(), "POST", ts2.URL+"/v1/mine", mineBody(t, info.Digest, cfg), &resp); status != http.StatusOK {
		t.Fatalf("mine after corruption: %d %s", status, raw)
	}
	if resp.Cached {
		t.Error("corrupt persisted entry was served as a cache hit")
	}
	if len(resp.Frequent) != len(before.Frequent) {
		t.Errorf("recomputed %d itemsets, want %d", len(resp.Frequent), len(before.Frequent))
	}
	var m ServerMetrics
	if status, raw := doJSON(t, ts2.Client(), "GET", ts2.URL+"/v1/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: %d %s", status, raw)
	}
	if m.Persist == nil || m.Persist.VerifyFailures != 1 {
		t.Fatalf("verifyFailures = %+v, want exactly 1", m.Persist)
	}
	if got := m.Obs.Counters["server.persist.verify_failures"]; got != 1 {
		t.Errorf("trace counter server.persist.verify_failures = %d, want 1", got)
	}

	// The recompute re-persisted a good entry: a third generation serves
	// it from disk again.
	s3 := func() *Server {
		dir3, err := persist.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dir3.Close() })
		return New(Options{Persistence: dir3})
	}()
	defer s3.Shutdown(context.Background())
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	var again MineResponse
	if status, raw := doJSON(t, ts3.Client(), "POST", ts3.URL+"/v1/mine", mineBody(t, info.Digest, cfg), &again); status != http.StatusOK {
		t.Fatalf("third-generation mine: %d %s", status, raw)
	}
	if !again.Cached {
		t.Error("re-persisted result not served from disk")
	}
}
