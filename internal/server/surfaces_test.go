package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/api"
	"repro/internal/colocation"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/server/persist"
)

// surfaceDoc renders a mining response as the document every surface
// must agree on: the wire form with the two fields that legitimately
// differ between runs cleared, the cache flag and the wall time.
func surfaceDoc(t *testing.T, resp *MineResponse) string {
	t.Helper()
	cp := *resp
	cp.Cached, cp.MiningMicros = false, 0
	out, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// startNode serves a node for the rest of the test.
func startNode(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return ts.URL
}

// mustDo sends one request and decodes its answer, failing the test
// on any other status than want.
func mustDo(t *testing.T, method, url string, body []byte, want int, out any) {
	t.Helper()
	if status, raw := doJSON(t, http.DefaultClient, method, url, body, out); status != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, status, want, raw)
	}
}

// awaitJob polls a job on base until it is done and returns its result.
func awaitJob(t *testing.T, base string, st JobStatus) *MineResponse {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); st.State != JobDone; time.Sleep(5 * time.Millisecond) {
		if st.State == JobFailed || st.State == JobCancelled || time.Now().After(deadline) {
			t.Fatalf("job %s: state %q (%s)", st.ID, st.State, st.Error)
		}
		mustDo(t, "GET", base+"/v1/jobs/"+st.ID, nil, http.StatusOK, &st)
	}
	return st.Result
}

// TestCrossSurfaceDocuments is the differential test over every surface
// that serves a mining result. For a scene mine, a table mine with rules
// and a co-location request, the library's answer rendered as the wire
// document must equal, once cached and miningMicros are cleared, what
// each of these returns: a cold sync request, a cache hit, 8 coalesced
// requests, an async job, a -data-dir restart serving the persisted
// result and a 2-peer front. The scene mine also goes down a 3-PATCH
// chain served by the delta path, where each successor's document must
// equal both the library's answer and a fresh node's cold mine of it.
// The CLI's leg is TestRunMatchesServedDocuments in cmd/qsrmine, since
// run() lives in a main package.
func TestCrossSurfaceDocuments(t *testing.T) {
	ctx := context.Background()
	encodeScene := func(d *dataset.Dataset, err error) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err == nil {
			err = d.WriteJSON(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	scene := encodeScene(datagen.GenerateScene(datagen.DefaultScene(6, 5, 31)))
	points := encodeScene(datagen.GenerateColocationScene(datagen.DefaultColocationScene(7)))
	tab, err := datagen.PaperDataset1(7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if err := tab.WriteTableCSV(&table); err != nil {
		t.Fatal(err)
	}
	sceneCfg := core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.25}
	tableCfg := core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.02, GenerateRules: true, MinConfidence: 0.6}
	for _, p := range datagen.Dataset1Dependencies {
		tableCfg.Dependencies = append(tableCfg.Dependencies, mining.Pair{A: p.A, B: p.B})
	}
	colocCfg := colocation.Config{Distance: 1, MinPI: 0.3}

	// library answers a request the way a node parses its upload.
	type library func(sd *StoredDataset) (*MineResponse, error)
	mineLib := func(cfg core.Config) library {
		return func(sd *StoredDataset) (*MineResponse, error) {
			var out *core.Outcome
			var err error
			if sd.Kind == KindScene {
				out, err = core.RunContext(ctx, sd.Scene, cfg)
			} else {
				out, err = core.RunTableContext(ctx, sd.Table, cfg)
			}
			if err != nil {
				return nil, err
			}
			return buildResponse(sd.Digest, out, cfg), nil
		}
	}
	cases := []struct {
		name        string
		kind        DatasetKind
		upload      []byte
		route, jobs string
		request     func(digest string) []byte
		library     library
	}{
		{"scene mine", KindScene, scene, "/v1/mine", "/v1/jobs",
			func(d string) []byte { return mineBody(t, d, sceneCfg) }, mineLib(sceneCfg)},
		{"table mine with rules", KindTable, table.Bytes(), "/v1/mine", "/v1/jobs",
			func(d string) []byte { return mineBody(t, d, tableCfg) }, mineLib(tableCfg)},
		{"colocate", KindScene, points, "/v1/colocate", "/v1/colocate/jobs",
			func(d string) []byte { return colocateBody(t, d, colocCfg) },
			func(sd *StoredDataset) (*MineResponse, error) {
				res, err := colocation.MineContext(ctx, sd.Scene, colocCfg)
				if err != nil {
					return nil, err
				}
				return buildColocateResponse(sd.Digest, res), nil
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			uploadPath := "/v1/datasets/" + string(tc.kind)
			digest := Digest(tc.upload)
			req := tc.request(digest)
			answer := func(upload []byte) string {
				t.Helper()
				sd, err := parseUpload(Digest(upload), tc.kind, upload)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := tc.library(sd)
				if err != nil {
					t.Fatal(err)
				}
				found := len(resp.Frequent)
				if resp.Colocation != nil {
					found = len(resp.Colocation.Prevalent)
				}
				if found < 2 || (tc.kind == KindTable && len(resp.Rules) == 0) {
					t.Fatalf("the library's answer is too small to compare: %s", surfaceDoc(t, resp))
				}
				return surfaceDoc(t, resp)
			}
			want := answer(tc.upload)
			check := func(surface string, got *MineResponse, want string) {
				t.Helper()
				if got == nil {
					t.Fatalf("%s: no result", surface)
				}
				if doc := surfaceDoc(t, got); doc != want {
					t.Errorf("%s: document differs from the library's:\n%s\nwant\n%s", surface, doc, want)
				}
			}
			uploadTo := func(base string, body []byte) {
				t.Helper()
				var info datasetInfo
				mustDo(t, "POST", base+uploadPath, body, http.StatusCreated, &info)
				if info.Digest != Digest(body) {
					t.Fatalf("upload digest %s, want %s", info.Digest, Digest(body))
				}
			}

			// Cold, then a cache hit, on one node.
			a := New(Options{Workers: 1})
			aURL := startNode(t, a)
			uploadTo(aURL, tc.upload)
			var cold, hit MineResponse
			mustDo(t, "POST", aURL+tc.route, req, http.StatusOK, &cold)
			check("cold sync", &cold, want)
			mustDo(t, "POST", aURL+tc.route, req, http.StatusOK, &hit)
			if !hit.Cached {
				t.Error("the repeated request was not a cache hit")
			}
			check("cache hit", &hit, want)

			// 8 requests coalesced onto one computation: the hook holds the
			// leader until the other 7 have joined its flight.
			const n = 8
			b := New(Options{Workers: 1})
			entered, release := make(chan struct{}, n), make(chan struct{})
			b.mineHook = func(ctx context.Context) error {
				entered <- struct{}{}
				select {
				case <-release:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			bURL := startNode(t, b)
			uploadTo(bURL, tc.upload)
			resps, errs := make([]MineResponse, n), make([]error, n)
			var wg sync.WaitGroup
			for i := range resps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					hr, err := http.Post(bURL+tc.route, "application/json", bytes.NewReader(req))
					if err == nil {
						err = json.NewDecoder(hr.Body).Decode(&resps[i])
						hr.Body.Close()
					}
					errs[i] = err
				}()
			}
			<-entered
			waitCounter(t, b.trace, "coalesce.hits", n-1)
			close(release)
			wg.Wait()
			for i := range resps {
				if errs[i] != nil {
					t.Fatalf("coalesced request %d: %v", i, errs[i])
				}
				check(fmt.Sprintf("coalesced request %d", i), &resps[i], want)
			}
			if c := b.trace.Counters(); c["server.mine.runs"]+c["server.colocate.runs"] != 1 {
				t.Errorf("%d coalesced requests ran %d computations", n, c["server.mine.runs"]+c["server.colocate.runs"])
			}

			// An async job on a durable node, then the persisted result
			// served by its successor on the same data directory.
			dir := t.TempDir()
			p1, err := persist.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			d1 := New(Options{Workers: 1, Persistence: p1})
			ts1 := httptest.NewServer(d1.Handler())
			uploadTo(ts1.URL, tc.upload)
			var st JobStatus
			mustDo(t, "POST", ts1.URL+tc.jobs, req, http.StatusAccepted, &st)
			check("async job", awaitJob(t, ts1.URL, st), want)
			ts1.Close()
			if err := d1.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			p1.Close()
			p2, err := persist.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p2.Close() })
			d2URL := startNode(t, New(Options{Workers: 1, Persistence: p2}))
			var restarted MineResponse
			mustDo(t, "POST", d2URL+tc.route, req, http.StatusOK, &restarted)
			if !restarted.Cached {
				t.Error("the restarted node recomputed instead of serving the persisted result")
			}
			check("-data-dir restart", &restarted, want)

			// A front over two peers.
			peers := []string{startNode(t, New(Options{Workers: 1})), startNode(t, New(Options{Workers: 1}))}
			front, err := NewProxy(ProxyOptions{Peers: peers, Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			frontTS := httptest.NewServer(front.Handler())
			t.Cleanup(frontTS.Close)
			uploadTo(frontTS.URL, tc.upload)
			var fronted MineResponse
			mustDo(t, "POST", frontTS.URL+tc.route, req, http.StatusOK, &fronted)
			check("2-peer front", &fronted, want)

			if tc.kind != KindScene || tc.route != "/v1/mine" {
				return
			}
			// A PATCH chain on the node that mined the upload cold: each
			// successor is mined by the delta path, and must equal the
			// library's answer and a fresh node's cold mine of it.
			d, err := dataset.ReadJSON(bytes.NewReader(tc.upload))
			if err != nil {
				t.Fatal(err)
			}
			parent := digest
			for k := 0; k < 3; k++ {
				ops := patchChainOps(k, d)
				nd, _, err := d.ApplyOps(ops)
				if err != nil {
					t.Fatal(err)
				}
				var succ bytes.Buffer
				if err := nd.WriteJSON(&succ); err != nil {
					t.Fatal(err)
				}
				body, err := json.Marshal(api.PatchRequest{Ops: ops})
				if err != nil {
					t.Fatal(err)
				}
				var pr api.PatchResponse
				mustDo(t, "PATCH", aURL+"/v1/datasets/"+parent, body, http.StatusCreated, &pr)
				if pr.Dataset.Digest != Digest(succ.Bytes()) {
					t.Fatalf("PATCH %d: successor %s, WriteJSON gives %s", k, pr.Dataset.Digest, Digest(succ.Bytes()))
				}
				wantSucc := answer(succ.Bytes())
				var delta, fresh MineResponse
				mustDo(t, "POST", aURL+tc.route, tc.request(pr.Dataset.Digest), http.StatusOK, &delta)
				check(fmt.Sprintf("PATCH %d, delta path", k), &delta, wantSucc)
				coldURL := startNode(t, New(Options{Workers: 1}))
				uploadTo(coldURL, succ.Bytes())
				mustDo(t, "POST", coldURL+tc.route, tc.request(pr.Dataset.Digest), http.StatusOK, &fresh)
				check(fmt.Sprintf("PATCH %d, fresh node", k), &fresh, wantSucc)
				d, parent = nd, pr.Dataset.Digest
			}
			if got := a.trace.Counter("delta.mine.patched"); got != 3 {
				t.Errorf("delta.mine.patched = %d, want the 3 successors patched forward", got)
			}
		})
	}
}
