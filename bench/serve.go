package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/colocation"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/server"
)

// patchesPerSession is how many successive PATCHes a session applies.
const patchesPerSession = 4

// sessionStep is one request of a serve-mix session, on lineage scene
// scene (0 is the uploaded scene, k its k-th successor).
type sessionStep struct {
	kind  string
	scene int
}

// sessionSteps is one serve-mix session: upload, mine cold, mine again
// from the cache, four PATCH + delta-mine pairs, colocate the last
// successor, then DELETE the whole lineage so that the next session's
// "cold" ops are cold again.
var sessionSteps = func() []sessionStep {
	s := []sessionStep{{"upload", 0}, {"mine_cold", 0}, {"mine_hit", 0}}
	for k := 1; k <= patchesPerSession; k++ {
		s = append(s, sessionStep{"patch", k}, sessionStep{"mine_delta", k})
	}
	s = append(s, sessionStep{"colocate", patchesPerSession})
	for k := 0; k <= patchesPerSession; k++ {
		s = append(s, sessionStep{"delete", k})
	}
	return s
}()

// serveMineConfig is what serve-mix's mines ask for.
var serveMineConfig = core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.2}

// lineage is one client's scene, its successors, the request bodies
// that produce them, and the expected answers.
type lineage struct {
	upload    []byte
	digests   []string // per lineage scene
	patches   [][]byte // patches[k] turns scene k-1 into scene k
	mines     [][]byte // mine request per lineage scene
	colocate  []byte   // colocate request for the last scene
	wantMine  []string
	wantColoc string
}

// newLineage generates client c's scene and derives its successors
// locally, exactly as the server will: each PATCH moves one distinct
// relevant feature by ±0.75 along x.
func newLineage(ctx context.Context, cfg config, c int) (*lineage, error) {
	g := cfg.size.serveGrid
	d, err := datagen.GenerateScene(datagen.DefaultScene(g, g, cfg.seed*16+int64(c)+1))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		return nil, err
	}
	lin := &lineage{upload: buf.Bytes(), patches: make([][]byte, patchesPerSession+1)}
	root, err := dataset.ReadJSON(bytes.NewReader(lin.upload))
	if err != nil {
		return nil, err
	}
	scenes := []*dataset.Dataset{root}
	lin.digests = []string{server.Digest(lin.upload)}
	rng := rand.New(rand.NewSource(cfg.seed*16 + int64(c)))
	moved := map[string]bool{}
	for k := 1; k <= patchesPerSession; {
		layer := root.Relevant[rng.Intn(len(root.Relevant))]
		if layer.Len() == 0 {
			continue
		}
		f := layer.Features[rng.Intn(layer.Len())]
		if moved[layer.Type+"/"+f.ID] {
			continue
		}
		moved[layer.Type+"/"+f.ID] = true
		dx := 0.75
		if rng.Intn(2) == 0 {
			dx = -dx
		}
		op := dataset.Op{Action: dataset.OpUpdate, Layer: layer.Type, ID: f.ID, WKT: geom.Translate(f.Geometry, dx, 0).WKT()}
		nd, _, err := scenes[k-1].ApplyOps([]dataset.Op{op})
		if err != nil {
			return nil, err
		}
		var succ bytes.Buffer
		if err := nd.WriteJSON(&succ); err != nil {
			return nil, err
		}
		if lin.patches[k], err = json.Marshal(api.PatchRequest{Ops: []dataset.Op{op}}); err != nil {
			return nil, err
		}
		scenes = append(scenes, nd)
		lin.digests = append(lin.digests, server.Digest(succ.Bytes()))
		k++
	}
	for k, scene := range scenes {
		out, err := core.RunContext(ctx, scene, serveMineConfig)
		if err != nil {
			return nil, err
		}
		lin.wantMine = append(lin.wantMine, anchor(cfg, outcomePrint(out)))
		body, err := json.Marshal(api.MineRequest{Dataset: lin.digests[k], Config: serveMineConfig})
		if err != nil {
			return nil, err
		}
		lin.mines = append(lin.mines, body)
	}
	last := len(scenes) - 1
	res, err := colocation.MineContext(ctx, scenes[last], colocConfig)
	if err != nil {
		return nil, err
	}
	lin.wantColoc = anchor(cfg, patternPrint(res.Prevalent))
	lin.colocate, err = json.Marshal(api.ColocateRequest{Dataset: lin.digests[last], Config: colocConfig})
	return lin, err
}

// serveMix is a running serve-mix instance: one in-process qsrmined
// behind a loopback listener and one session per client.
type serveMix struct {
	srv       *server.Server
	ts        *httptest.Server
	transport *http.Transport
	cl        *client.Client
	logs      *accessLog
	lineages  []*lineage
	steps     []int // next session step per client

	// traceMu runs traced ops one at a time, so that the server counter
	// deltas around an op belong to that op alone.
	traceMu sync.Mutex
	before  map[string]int64 // counters at the window start
}

// setupServe starts the server, the clients' lineages and their
// expected answers.
func setupServe(ctx context.Context, cfg config) (*instance, error) {
	const clients = 2
	s := &serveMix{logs: newAccessLog(), steps: make([]int, clients)}
	for c := 0; c < clients; c++ {
		lin, err := newLineage(ctx, cfg, c)
		if err != nil {
			return nil, err
		}
		s.lineages = append(s.lineages, lin)
	}
	var opts server.Options
	if cfg.trace {
		opts.AccessLog = s.logs
	}
	s.srv = server.New(opts)
	s.ts = httptest.NewServer(s.srv.Handler())
	s.transport = &http.Transport{MaxIdleConnsPerHost: clients}
	s.cl = client.New(s.ts.URL, client.WithHTTPClient(&http.Client{Transport: s.transport}))
	return &instance{
		do: s.do,
		windowStart: func(ctx context.Context) (err error) {
			s.before, err = s.counters(ctx)
			return err
		},
		windowEnd: s.reconcile,
		close:     s.close,
	}, nil
}

func (s *serveMix) close() {
	s.ts.Close()
	s.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Every request has returned, so nothing is left to drain.
	_ = s.srv.Shutdown(ctx)
}

func (s *serveMix) counters(ctx context.Context) (map[string]int64, error) {
	m, err := s.cl.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("reading /v1/metrics: %w", err)
	}
	return m.Obs.Counters, nil
}

// reconcile checks the server's own counts against the ops the window
// ran: every mine_hit was a cache hit, every mine_cold and mine_delta a
// pipeline run, every mine_delta a patched result, every colocate a
// co-location run.
func (s *serveMix) reconcile(ctx context.Context, kinds map[string]int) error {
	after, err := s.counters(ctx)
	if err != nil {
		return err
	}
	var bad []string
	for name, want := range map[string]int{
		"server.cache.hits":    kinds["mine_hit"],
		"server.mine.runs":     kinds["mine_cold"] + kinds["mine_delta"],
		"server.colocate.runs": kinds["colocate"],
		"delta.mine.patched":   kinds["mine_delta"],
	} {
		if got := after[name] - s.before[name]; got != int64(want) {
			bad = append(bad, fmt.Sprintf("%s moved by %d, the ops imply %d", name, got, want))
		}
	}
	if bad != nil {
		return fmt.Errorf("server counters disagree with the ops: %s", strings.Join(bad, "; "))
	}
	return nil
}

// do runs client c's next session step.
func (s *serveMix) do(ctx context.Context, c int, ot *stepTrace) (stepResult, error) {
	lin := s.lineages[c]
	st := sessionSteps[s.steps[c]%len(sessionSteps)]
	s.steps[c]++

	var method, path string
	var body []byte
	status := http.StatusOK
	var doc any
	var check func() error
	switch st.kind {
	case "upload":
		method, path, body, status = http.MethodPost, "/v1/datasets/scene", lin.upload, http.StatusCreated
		var info api.DatasetInfo
		doc = &info
		check = func() error {
			if info.Digest != lin.digests[0] || info.Kind != api.KindScene {
				return fmt.Errorf("uploaded %s %s, want scene %s", info.Kind, info.Digest, lin.digests[0])
			}
			return nil
		}
	case "mine_cold", "mine_hit", "mine_delta":
		method, path, body = http.MethodPost, "/v1/mine", lin.mines[st.scene]
		var resp api.MineResponse
		doc = &resp
		check = func() error {
			if resp.Cached != (st.kind == "mine_hit") {
				return fmt.Errorf("cached=%v on a %s", resp.Cached, st.kind)
			}
			lines := make([]string, len(resp.Frequent))
			for i, f := range resp.Frequent {
				lines[i] = itemsetLine(f.Items, f.Support)
			}
			return expect(digestLines(lines), lin.wantMine[st.scene])
		}
	case "patch":
		method, path, body, status = http.MethodPatch, "/v1/datasets/"+lin.digests[st.scene-1], lin.patches[st.scene], http.StatusCreated
		var resp api.PatchResponse
		doc = &resp
		check = func() error {
			if resp.Parent != lin.digests[st.scene-1] || resp.Dataset.Digest != lin.digests[st.scene] || resp.Changed != 1 {
				return fmt.Errorf("patch derived %s from %s (%d changed), want %s", resp.Dataset.Digest, resp.Parent, resp.Changed, lin.digests[st.scene])
			}
			return nil
		}
	case "colocate":
		method, path, body = http.MethodPost, "/v1/colocate", lin.colocate
		var resp api.MineResponse
		doc = &resp
		check = func() error {
			if resp.Colocation == nil {
				return errors.New("colocate answered without a colocation block")
			}
			ps := make([]colocation.Pattern, len(resp.Colocation.Prevalent))
			for i, p := range resp.Colocation.Prevalent {
				ps[i] = colocation.Pattern{Types: p.Types, PI: p.ParticipationIndex, Rows: p.RowInstances}
			}
			return expect(patternPrint(ps), lin.wantColoc)
		}
	case "delete":
		method, path = http.MethodDelete, "/v1/datasets/"+lin.digests[st.scene]
		var resp api.DeleteResponse
		doc = &resp
		check = func() error {
			if !resp.Deleted || resp.Digest != lin.digests[st.scene] {
				return fmt.Errorf("delete of %s answered %+v", lin.digests[st.scene], resp)
			}
			return nil
		}
	}

	var header http.Header
	var before map[string]int64
	if ot != nil {
		s.traceMu.Lock()
		defer s.traceMu.Unlock()
		var err error
		if before, err = s.counters(ctx); err != nil {
			return stepResult{kind: st.kind, start: time.Now()}, err
		}
		header = http.Header{"X-Request-Id": {fmt.Sprintf("step-%d", ot.step)}}
	}

	r := stepResult{kind: st.kind, start: time.Now()}
	var raw *client.RawResponse
	var err error
	rtt := region(ot, "client.rtt", func() { raw, err = s.cl.Forward(ctx, method, path, header, body) })
	if err == nil && raw.Status == status {
		region(ot, "client.decode", func() { err = json.Unmarshal(raw.Body, doc) })
	}
	r.lat = time.Since(r.start)
	switch {
	case err != nil:
		return r, err
	case raw.Status != status:
		return r, fmt.Errorf("%s %s: HTTP %d, want %d: %s", method, path, raw.Status, status, bytes.TrimSpace(raw.Body))
	}
	r.check = check
	if ot != nil {
		err = s.traceServer(ctx, ot, rtt, header.Get("X-Request-Id"), before)
	}
	return r, err
}

// stageLayers names the layer behind each top-level pipeline stage the
// server reports as a stage.<name>.nanos counter. Nested stages
// (extract.prepare inside extract) are left out so nothing counts twice.
var stageLayers = map[string]string{
	"extract":            "transact.extract",
	"extract.delta":      "transact.delta",
	"intern":             "itemset.intern",
	"mine":               "mining.mine",
	"mine.delta":         "mining.patch",
	"postfilter":         "mining.postfilter",
	"rules":              "mining.rules",
	"colocate.neighbors": "colocation.neighbors",
	"colocate.walk":      "colocation.walk",
}

// traceServer adds the server side of a traced op: its handler span from
// the access log, and inside it one span per pipeline stage whose
// counter moved. Counters carry durations, not start times, so stage
// spans are placed at the handler's start.
func (s *serveMix) traceServer(ctx context.Context, ot *stepTrace, rtt int64, rid string, before map[string]int64) error {
	entry, ok := s.logs.wait(rid, 5*time.Second)
	if !ok {
		return fmt.Errorf("no access-log line for request %s", rid)
	}
	after, err := s.counters(ctx)
	if err != nil {
		return err
	}
	handler := ot.add(rtt, "server.handler", entry.start, entry.start.Add(entry.dur))
	for name, v := range after {
		delta := v - before[name]
		if delta == 0 {
			continue
		}
		ot.count(name, delta)
		if stage, ok := strings.CutPrefix(name, "stage."); ok {
			if layer := stageLayers[strings.TrimSuffix(stage, ".nanos")]; layer != "" {
				ot.add(handler, layer, entry.start, entry.start.Add(time.Duration(delta)))
			}
		}
	}
	return nil
}

// logEntry is one access-log line: when the handler started and how
// long it ran.
type logEntry struct {
	start time.Time
	dur   time.Duration
}

// accessLog is the server's access-log writer. It keeps the lines of
// requests the benchmark traced (request IDs starting "step-") until the
// step collects them.
type accessLog struct {
	mu      sync.Mutex
	entries map[string]chan logEntry
}

func newAccessLog() *accessLog { return &accessLog{entries: map[string]chan logEntry{}} }

func (l *accessLog) slot(rid string) chan logEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	ch := l.entries[rid]
	if ch == nil {
		ch = make(chan logEntry, 1)
		l.entries[rid] = ch
	}
	return ch
}

// Write parses one line "<start> <method> <path> <status> <duration>
// rid=<id>" as the server writes it.
func (l *accessLog) Write(p []byte) (int, error) {
	f := strings.Fields(string(p))
	if len(f) != 6 || !strings.HasPrefix(f[5], "rid=step-") {
		return len(p), nil
	}
	start, err := time.Parse(time.RFC3339Nano, f[0])
	if err != nil {
		return len(p), nil
	}
	dur, err := time.ParseDuration(f[4])
	if err != nil {
		return len(p), nil
	}
	// Each traced request ID is used once, so its slot is empty; never
	// block the server's logging on a slot nobody collects.
	select {
	case l.slot(strings.TrimPrefix(f[5], "rid=")) <- logEntry{start: start, dur: dur}:
	default:
	}
	return len(p), nil
}

// wait returns the line of request rid, which the server writes just
// after the response has gone out.
func (l *accessLog) wait(rid string, timeout time.Duration) (logEntry, bool) {
	ch := l.slot(rid)
	defer func() {
		l.mu.Lock()
		delete(l.entries, rid)
		l.mu.Unlock()
	}()
	select {
	case e := <-ch:
		return e, true
	case <-time.After(timeout):
		return logEntry{}, false
	}
}
