package persist

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/api"
)

// digestOf mirrors the server's content addressing for test bodies.
func digestOf(body []byte) string { return hashHex(body) }

func openDir(t *testing.T) *Dir {
	t.Helper()
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestDatasetRoundTrip(t *testing.T) {
	d := openDir(t)
	body := []byte("r1,a,b\nr2,a,c\n")
	digest := digestOf(body)

	if err := d.SaveDataset(digest, body, api.KindTable, 2); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-save (identical bytes by content addressing).
	if err := d.SaveDataset(digest, body, api.KindTable, 2); err != nil {
		t.Fatal(err)
	}
	got, kind, rows, err := d.LoadDataset(digest)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(body) || kind != api.KindTable || rows != 2 {
		t.Errorf("round trip = %q kind %q rows %d", got, kind, rows)
	}

	list := d.ListDatasets()
	if len(list) != 1 || list[0].Digest != digest || list[0].Rows != 2 || list[0].Bytes != int64(len(body)) {
		t.Errorf("ListDatasets = %+v", list)
	}

	// Unknown digest: not-exist, not a verification failure.
	if _, _, _, err := d.LoadDataset(digestOf([]byte("other"))); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing dataset err = %v, want fs.ErrNotExist", err)
	}
	// Digests are the only accepted names — no path fragments.
	if err := d.SaveDataset("../../etc/passwd", body, api.KindTable, 2); err == nil {
		t.Error("non-digest name accepted")
	}

	if !d.DeleteDataset(digest) {
		t.Error("delete reported absent")
	}
	if d.DeleteDataset(digest) {
		t.Error("double delete reported present")
	}
}

func TestDatasetCorruptionDetected(t *testing.T) {
	d := openDir(t)
	body := []byte("r1,a,b\n")
	digest := digestOf(body)
	if err := d.SaveDataset(digest, body, api.KindTable, 1); err != nil {
		t.Fatal(err)
	}
	// Flip the stored bytes: the content address no longer matches.
	path := filepath.Join(d.Root(), "datasets", digest)
	if err := os.WriteFile(path, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.LoadDataset(digest); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("corrupt dataset err = %v, want ErrVerifyFailed", err)
	}
	// The corrupt file was discarded: the next load is a clean miss.
	if _, _, _, err := d.LoadDataset(digest); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("after discard err = %v, want fs.ErrNotExist", err)
	}
	if st := d.PersistStats(); st.VerifyFailures != 1 {
		t.Errorf("verifyFailures = %d, want 1", st.VerifyFailures)
	}
}

// TestDiscardDataset: a caller's discard removes a dataset and its
// sidecar and counts one verification failure; discarding what is not
// there counts nothing.
func TestDiscardDataset(t *testing.T) {
	d := openDir(t)
	body := []byte("r1,a,b\n")
	digest := digestOf(body)
	if err := d.SaveDataset(digest, body, api.KindTable, 1); err != nil {
		t.Fatal(err)
	}
	d.DiscardDataset(digest)
	d.DiscardDataset(digest)
	if _, _, _, err := d.LoadDataset(digest); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("after discard err = %v, want fs.ErrNotExist", err)
	}
	if len(d.ListDatasets()) != 0 {
		t.Errorf("discarded dataset still listed: %+v", d.ListDatasets())
	}
	if st := d.PersistStats(); st.VerifyFailures != 1 {
		t.Errorf("verifyFailures = %d, want 1", st.VerifyFailures)
	}
}

// TestDiscardedDatasetTakesItsResults is the regression test for
// results left behind by a discarded dataset: a body that fails its
// hash, a sidecar that fails to decode and a caller's discard each
// remove the dataset's persisted results, and only those.
func TestDiscardedDatasetTakesItsResults(t *testing.T) {
	for name, fail := range map[string]func(d *Dir, digest string){
		"hash": func(d *Dir, digest string) {
			if err := os.WriteFile(filepath.Join(d.Root(), "datasets", digest), []byte("tampered"), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := d.LoadDataset(digest); !errors.Is(err, ErrVerifyFailed) {
				t.Fatalf("LoadDataset err = %v, want ErrVerifyFailed", err)
			}
		},
		"sidecar": func(d *Dir, digest string) {
			if err := os.WriteFile(filepath.Join(d.Root(), "datasets", digest+".meta.json"), []byte("{"), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := d.LoadDataset(digest); !errors.Is(err, ErrVerifyFailed) {
				t.Fatalf("LoadDataset err = %v, want ErrVerifyFailed", err)
			}
		},
		"discard": func(d *Dir, digest string) { d.DiscardDataset(digest) },
	} {
		d := openDir(t)
		body := []byte("r1,a,b\n")
		digest, other := digestOf(body), digestOf([]byte("other"))
		if err := d.SaveDataset(digest, body, api.KindTable, 1); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{digest + "|c1", digest + "|c2", other + "|c1"} {
			if err := d.SaveResult(key, &api.MineResponse{Transactions: 1}); err != nil {
				t.Fatal(err)
			}
		}
		fail(d, digest)
		if st := d.PersistStats(); st.Results != 1 || st.Datasets != 0 || st.VerifyFailures != 1 {
			t.Errorf("%s: stats %+v, want 1 result, 0 datasets, 1 verify failure", name, st)
		}
		if _, err := d.LoadResult(other + "|c1"); err != nil {
			t.Errorf("%s: another dataset's result went too: %v", name, err)
		}
		if st := d.PersistStats(); st.Results != 1 {
			t.Errorf("%s: %d results left, want the other dataset's 1", name, st.Results)
		}
	}
}

func TestResultRoundTripAndChainVerification(t *testing.T) {
	d := openDir(t)
	digest := digestOf([]byte("dataset"))
	key := digest + `|{"minSupport":0.5}`
	resp := &api.MineResponse{Algorithm: "eclat-kc+", Transactions: 7, Cached: true}

	if err := d.SaveResult(key, resp); err != nil {
		t.Fatal(err)
	}
	got, err := d.LoadResult(key)
	if err != nil {
		t.Fatal(err)
	}
	// The Cached flag is transport-only: excluded from the chain and
	// cleared on load (the cache re-marks served copies).
	if got.Cached {
		t.Error("persisted result came back pre-marked cached")
	}
	if got.Algorithm != resp.Algorithm || got.Transactions != resp.Transactions {
		t.Errorf("round trip = %+v", got)
	}

	// A different config under the same dataset is a distinct entry.
	if _, err := d.LoadResult(digest + `|{"minSupport":0.6}`); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("other config err = %v, want fs.ErrNotExist", err)
	}

	// Corrupt the stored response: the result link of the chain breaks.
	path := d.resultPath(digest, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := []byte(string(raw))
	copy(tampered, []byte(`{"chain":{"dataset":"x`))
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadResult(key); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("tampered result err = %v, want ErrVerifyFailed", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Error("tampered result file was not discarded")
	}
	if st := d.PersistStats(); st.VerifyFailures != 1 || st.ResultHits != 1 {
		t.Errorf("stats = %+v, want 1 verify failure / 1 result hit", st)
	}
}

func TestResultChainRejectsSwappedKey(t *testing.T) {
	d := openDir(t)
	digest := digestOf([]byte("dataset"))
	keyA := digest + `|{"minSupport":0.5}`
	keyB := digest + `|{"minSupport":0.9}`
	if err := d.SaveResult(keyA, &api.MineResponse{Transactions: 1}); err != nil {
		t.Fatal(err)
	}
	// Serve A's file under B's key: the config link must catch it.
	if err := os.Rename(d.resultPath(digest, keyA), d.resultPath(digest, keyB)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadResult(keyB); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("swapped result err = %v, want ErrVerifyFailed", err)
	}
}

func TestDeleteResultsByDataset(t *testing.T) {
	d := openDir(t)
	a, b := digestOf([]byte("a")), digestOf([]byte("b"))
	for _, key := range []string{a + "|c1", a + "|c2", b + "|c1"} {
		if err := d.SaveResult(key, &api.MineResponse{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.DeleteResults(a); n != 2 {
		t.Errorf("DeleteResults(a) = %d, want 2", n)
	}
	if _, err := d.LoadResult(b + "|c1"); err != nil {
		t.Errorf("unrelated dataset's result was deleted: %v", err)
	}
}

func TestWALAppendReplayCompact(t *testing.T) {
	root := t.TempDir()
	d, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	req := &api.MineRequest{Dataset: digestOf([]byte("d"))}
	now := time.Now().UTC().Truncate(time.Second)
	records := []JobRecord{
		{Type: RecSubmitted, ID: "j1", Time: now, Req: req},
		{Type: RecStarted, ID: "j1", Time: now},
		{Type: RecFinished, ID: "j1", Time: now, State: api.JobDone},
		{Type: RecSubmitted, ID: "j2", Time: now, Req: req},
		{Type: RecCancelled, ID: "j2", Time: now},
	}
	for _, rec := range records {
		if err := d.AppendJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()

	// A second process generation replays exactly what was appended.
	d2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err := d2.ReplayJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("replayed %d records, want %d", len(got), len(records))
	}
	for i, rec := range got {
		if rec.Type != records[i].Type || rec.ID != records[i].ID || rec.State != records[i].State {
			t.Errorf("record %d = %+v, want %+v", i, rec, records[i])
		}
	}
	if got[0].Req == nil || got[0].Req.Dataset != req.Dataset {
		t.Error("submitted record lost its request")
	}

	// Compaction rewrites the journal to the retained set; appends keep
	// working on the new file.
	if err := d2.CompactJobs(got[:1]); err != nil {
		t.Fatal(err)
	}
	if err := d2.AppendJob(JobRecord{Type: RecStarted, ID: "j1", Time: now}); err != nil {
		t.Fatal(err)
	}
	again, err := d2.ReplayJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || again[0].Type != RecSubmitted || again[1].Type != RecStarted {
		t.Errorf("post-compaction journal = %+v", again)
	}
}

func TestWALToleratesTornTail(t *testing.T) {
	root := t.TempDir()
	d, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AppendJob(JobRecord{Type: RecSubmitted, ID: "j1", Time: time.Now(), Req: &api.MineRequest{}}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Simulate a crash mid-append: a half-written trailing record.
	f, err := os.OpenFile(filepath.Join(root, "jobs.wal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"started","id":"j1","ti`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	recs, err := d2.ReplayJobs()
	if err != nil {
		t.Fatalf("torn tail must not fail replay: %v", err)
	}
	if len(recs) != 1 || recs[0].Type != RecSubmitted {
		t.Errorf("replay with torn tail = %+v, want the 1 intact record", recs)
	}
	if st := d2.PersistStats(); st.WALTruncated != 1 {
		t.Errorf("walTruncated = %d, want 1", st.WALTruncated)
	}
}

// TestWALReplayKeepsRecordsAfterUndecodableRequest: only a line that is
// not valid JSON ends replay. A submitted record whose request no longer
// decodes is returned with ReqError and a digest-only placeholder Req,
// and the records after it still replay.
func TestWALReplayKeepsRecordsAfterUndecodableRequest(t *testing.T) {
	root := t.TempDir()
	journal := `{"t":"submitted","id":"j1","time":"2026-01-02T03:04:05Z","req":{"dataset":"d1","config":{"algorithm":"quantum","minSupport":0.5}}}
{"t":"submitted","id":"j2","time":"2026-01-02T03:04:05Z","req":{"dataset":"d2","config":{"algorithm":"eclat-kc+","minSupport":0.5}}}
{"t":"started","id":"j2","ti`
	if err := os.WriteFile(filepath.Join(root, "jobs.wal"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	recs, err := d.ReplayJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2: %+v", len(recs), recs)
	}
	if recs[0].ReqError == "" || !strings.Contains(recs[0].ReqError, "quantum") || recs[0].Req == nil || recs[0].Req.Dataset != "d1" {
		t.Errorf("undecodable record = %+v, want ReqError naming the algorithm and a d1 placeholder", recs[0])
	}
	if recs[1].ReqError != "" || recs[1].Req == nil || recs[1].Req.Config.Algorithm.String() != "eclat-kc+" {
		t.Errorf("valid record = %+v", recs[1])
	}
	if st := d.PersistStats(); st.WALTruncated != 1 {
		t.Errorf("walTruncated = %d, want 1 (the torn tail only)", st.WALTruncated)
	}
}
