package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/buildinfo"
	"repro/internal/obs"
)

// ProxyOptions configures a front node.
type ProxyOptions struct {
	// Peers are the base URLs of the mining nodes ("http://host:port").
	// At least one is required.
	Peers []string
	// Replicas is how many peers each dataset digest is stored on and
	// routed to (default 2, capped at len(Peers)).
	Replicas int
	// MaxUploadBytes bounds one request body (default 32 MiB).
	MaxUploadBytes int64
	// EventLimit bounds the obs event ring (default 4096).
	EventLimit int
	// HTTPClient, when non-nil, is the shared transport for peer calls.
	HTTPClient *http.Client
	// PeerTimeout bounds one forwarded call when the incoming request
	// carries no deadline (default 120s — above the peers' own mining
	// default, so the peer's 504 wins over a proxy-side cut).
	PeerTimeout time.Duration
	// AccessLog, when non-nil, receives one line per proxied request.
	AccessLog io.Writer
}

// Proxy is a qsrmined front node: it owns no datasets and mines
// nothing, but consistent-hashes every request onto its peers by
// dataset digest, replicating uploads to R peers and failing over to
// the next ring candidate when a peer is unreachable or answers 5xx.
// Responses are forwarded byte-for-byte, so a client cannot tell a
// front from a mining node — except through /v1/healthz, which reports
// role "front", and /v1/metrics, which carries ring statistics.
//
// Counters (through obs to /v1/metrics):
//
//	proxy.forwarded     requests answered by a peer
//	proxy.failovers     peer attempts skipped over a connection error or 5xx
//	proxy.errors        requests for which every candidate failed
//	proxy.replicas      upload copies stored beyond the first
//
// Job routing: job IDs carry a per-node random prefix, so the front
// remembers id → peer at submission and routes polls and cancellations
// to the owning node.
type Proxy struct {
	opts      ProxyOptions
	ring      *ring
	clients   map[string]*client.Client
	trace     *obs.Trace
	collector *obs.Collector
	mux       *http.ServeMux
	started   time.Time
	draining  atomic.Bool
	logmu     sync.Mutex

	// jobPeer (job ID -> peer base URL) and childOf (PATCH successor
	// digest -> parent digest) are bounded LRUs, mirroring the node-side
	// DeltaManager caches: a long-running front must not grow routing
	// state without bound. Eviction only costs routing quality — an
	// evicted job polls as 404, an evicted lineage record routes the
	// successor by its own digest (a cold mine on another peer).
	mu      sync.Mutex
	jobPeer *lru[string, string]
	childOf *lru[string, string]
}

// Caps for the front's routing LRUs.
const (
	proxyJobEntries     = 4096
	proxyLineageEntries = 1024
)

// NewProxy assembles a front node for the given peers.
func NewProxy(opts ProxyOptions) (*Proxy, error) {
	if len(opts.Peers) == 0 {
		return nil, errors.New("server: a front node needs at least one peer")
	}
	peers := make([]string, 0, len(opts.Peers))
	seen := map[string]bool{}
	for _, p := range opts.Peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		peers = append(peers, p)
	}
	if len(peers) == 0 {
		return nil, errors.New("server: peer list is empty after normalisation")
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	if opts.Replicas > len(peers) {
		opts.Replicas = len(peers)
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = 32 << 20
	}
	if opts.EventLimit <= 0 {
		opts.EventLimit = 4096
	}
	if opts.PeerTimeout <= 0 {
		opts.PeerTimeout = 120 * time.Second
	}
	opts.Peers = peers
	collector := obs.NewRingCollector(opts.EventLimit)
	p := &Proxy{
		opts:      opts,
		ring:      newRing(peers),
		clients:   make(map[string]*client.Client, len(peers)),
		trace:     obs.New(collector),
		collector: collector,
		started:   time.Now(),
		jobPeer:   newLRU[string, string](proxyJobEntries, 0),
		childOf:   newLRU[string, string](proxyLineageEntries, 0),
	}
	httpc := opts.HTTPClient
	if httpc == nil {
		httpc = &http.Client{}
	}
	for _, peer := range peers {
		p.clients[peer] = client.New(peer, client.WithHTTPClient(httpc), client.WithTimeout(opts.PeerTimeout))
	}
	p.mux = newMux(p.routeTable())
	return p, nil
}

// routeTable enumerates the front's endpoints: a node's table (the
// route parity test holds them equal), backed by forwarding handlers.
func (p *Proxy) routeTable() []route {
	return []route{
		{"GET", "/v1/healthz", p.handleHealthz},
		{"GET", "/v1/metrics", p.handleMetrics},
		{"POST", "/v1/datasets/scene", p.uploadHandler("/v1/datasets/scene")},
		{"POST", "/v1/datasets/table", p.uploadHandler("/v1/datasets/table")},
		{"GET", "/v1/datasets", p.handleListDatasets},
		{"GET", "/v1/datasets/{digest}", p.handleGetDataset},
		{"PATCH", "/v1/datasets/{digest}", p.handlePatchDataset},
		{"DELETE", "/v1/datasets/{digest}", p.handleDeleteDataset},
		{"POST", "/v1/mine", p.mineHandler("/v1/mine", decodeMine)},
		{"POST", "/v1/colocate", p.mineHandler("/v1/colocate", decodeColocate)},
		{"POST", "/v1/jobs", p.mineHandler("/v1/jobs", decodeMine)},
		{"POST", "/v1/colocate/jobs", p.mineHandler("/v1/colocate/jobs", decodeColocate)},
		{"GET", "/v1/jobs/{id}", p.handleJobByID},
		{"DELETE", "/v1/jobs/{id}", p.handleJobByID},
	}
}

// Handler returns the front node's HTTP handler.
func (p *Proxy) Handler() http.Handler {
	return requestMiddleware(p.mux, p.trace, p.opts.AccessLog, &p.logmu)
}

// Draining reports whether Shutdown has begun.
func (p *Proxy) Draining() bool { return p.draining.Load() }

// Shutdown flips the front into draining: new requests get 503 while
// the caller closes the listener (which waits out in-flight forwards).
// The peers drain independently — a front holds no mining state.
func (p *Proxy) Shutdown(ctx context.Context) error {
	p.draining.Store(true)
	return nil
}

// rejectDraining mirrors the mining node's drain behaviour.
func (p *Proxy) rejectDraining(w http.ResponseWriter, r *http.Request) bool {
	if !p.Draining() {
		return false
	}
	writeError(w, r, http.StatusServiceUnavailable, api.CodeDraining, "front is shutting down")
	return true
}

// forward sends one exchange to a peer, propagating the request ID so
// one X-Request-ID spans front and node logs. The error is non-nil only
// for transport failures.
func (p *Proxy) forward(r *http.Request, peer, method, path string, body []byte) (*client.RawResponse, error) {
	hdr := http.Header{}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		hdr.Set("Content-Type", ct)
	}
	if rid := RequestIDFromContext(r.Context()); rid != "" {
		hdr.Set(requestIDHeader, rid)
	}
	return p.clients[peer].Forward(r.Context(), method, path, hdr, body)
}

// respondRaw relays a peer response byte-for-byte.
func respondRaw(w http.ResponseWriter, raw *client.RawResponse) {
	if ct := raw.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := raw.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(raw.Status)
	_, _ = w.Write(raw.Body)
}

// tryCandidates walks peers in ring order, forwarding until one answers
// with anything below 500. Connection errors and 5xx responses count as
// failovers and move on; the first definitive response (2xx–4xx) is
// relayed unchanged. onSuccess (optional) observes the peer and raw
// response that won. Returns false when every candidate failed — the
// caller has then already been answered with 502.
func (p *Proxy) tryCandidates(w http.ResponseWriter, r *http.Request, cands []string, method, path string, body []byte, onSuccess func(peer string, raw *client.RawResponse)) bool {
	var lastErr string
	for i, peer := range cands {
		raw, err := p.forward(r, peer, method, path, body)
		if err != nil {
			lastErr = err.Error()
			p.trace.Add("proxy.failovers", 1)
			p.trace.Annotate("proxy.failover", fmt.Sprintf("%s %s peer=%s err=%v", method, path, peer, err))
			continue
		}
		if raw.Status >= 500 {
			lastErr = fmt.Sprintf("%s answered %d", peer, raw.Status)
			p.trace.Add("proxy.failovers", 1)
			p.trace.Annotate("proxy.failover", fmt.Sprintf("%s %s peer=%s status=%d", method, path, peer, raw.Status))
			continue
		}
		if i > 0 {
			// Served by a non-primary candidate; the counters above
			// already recorded each skip.
			p.trace.Add("proxy.rerouted", 1)
		}
		p.trace.Add("proxy.forwarded", 1)
		if onSuccess != nil {
			onSuccess(peer, raw)
		}
		respondRaw(w, raw)
		return true
	}
	p.trace.Add("proxy.errors", 1)
	writeError(w, r, http.StatusBadGateway, api.CodeUpstream,
		"no peer of %d could serve %s %s (last: %s)", len(cands), method, path, lastErr)
	return false
}

// replicate copies a write the winner accepted to the candidates after
// it in ring order, best effort, until p.opts.Replicas peers hold it,
// and returns how many do. Uploads and PATCHes both replicate through
// it; content addressing makes every copy idempotent.
func (p *Proxy) replicate(r *http.Request, cands []string, winner, method, path string, body []byte) int {
	held := 1
	for _, peer := range cands[slices.Index(cands, winner)+1:] {
		if held >= p.opts.Replicas {
			break
		}
		if raw, err := p.forward(r, peer, method, path, body); err == nil && raw.Status < 300 {
			held++
			p.trace.Add("proxy.replicas", 1)
		} else {
			p.trace.Add("proxy.failovers", 1)
		}
	}
	return held
}

// uploadHandler stores an upload on the digest's R replicas: the first
// reachable candidate in ring order answers the client, and an accepted
// upload is replicated to the next ones. Every replica derives the same
// digest.
func (p *Proxy) uploadHandler(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if p.rejectDraining(w, r) {
			return
		}
		body, ok := readBody(w, r, p.opts.MaxUploadBytes)
		if !ok {
			return
		}
		digest := Digest(body)
		cands := p.ring.candidates(digest)
		p.tryCandidates(w, r, cands, http.MethodPost, path, body, func(winner string, raw *client.RawResponse) {
			if raw.Status >= 300 {
				return // the body was rejected; don't replicate garbage
			}
			n := p.replicate(r, cands, winner, http.MethodPost, path, body)
			p.trace.Annotate("proxy.upload", fmt.Sprintf("digest=%s replicas=%d", digest[:12], n))
		})
	}
}

// mineHandler routes POST /v1/mine, /v1/colocate and their /jobs forms
// by the dataset digest named in the body, with ring-order failover.
// The body goes through the node's decoder for the route first, so a
// front refuses what a node refuses, with the same answer. Successful
// job submissions are remembered so later polls route to the owning
// node.
func (p *Proxy) mineHandler(path string, decode requestDecoder) http.HandlerFunc {
	isJob := strings.HasSuffix(path, "/jobs")
	return func(w http.ResponseWriter, r *http.Request) {
		if p.rejectDraining(w, r) {
			return
		}
		body, ok := readBody(w, r, p.opts.MaxUploadBytes)
		if !ok {
			return
		}
		req, err := decode(body)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
			return
		}
		cands := p.routeDigest(req.Dataset)
		p.tryCandidates(w, r, cands, http.MethodPost, path, body, func(peer string, raw *client.RawResponse) {
			if !isJob || raw.Status != http.StatusAccepted {
				return
			}
			var st struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(raw.Body, &st); err == nil && st.ID != "" {
				p.mu.Lock()
				p.jobPeer.put(st.ID, peer, 0)
				p.mu.Unlock()
			}
		})
	}
}

// handleJobByID routes GET/DELETE /v1/jobs/{id} to the node that
// accepted the submission.
func (p *Proxy) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p.mu.Lock()
	peer, ok := p.jobPeer.get(id)
	p.mu.Unlock()
	if !ok {
		writeError(w, r, http.StatusNotFound, api.CodeNotFound, "unknown job %q", id)
		return
	}
	raw, err := p.forward(r, peer, r.Method, "/v1/jobs/"+id, nil)
	if err != nil {
		p.trace.Add("proxy.errors", 1)
		writeError(w, r, http.StatusBadGateway, api.CodeUpstream, "job %q lives on %s, which is unreachable: %v", id, peer, err)
		return
	}
	p.trace.Add("proxy.forwarded", 1)
	respondRaw(w, raw)
}

// handleGetDataset routes dataset metadata by digest with failover.
func (p *Proxy) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	p.tryCandidates(w, r, p.routeDigest(digest), http.MethodGet, "/v1/datasets/"+digest, nil, nil)
}

// routeDigest resolves a digest's ring candidates, following recorded
// PATCH lineage: a successor created by PATCH lives on the replicas of
// its root ancestor (where the patch was applied), not at its own ring
// position, so requests for it must route by the root.
func (p *Proxy) routeDigest(digest string) []string {
	p.mu.Lock()
	root := digest
	for hops := 0; hops < 64; hops++ {
		parent, ok := p.childOf.get(root)
		if !ok {
			break
		}
		root = parent
	}
	p.mu.Unlock()
	return p.ring.candidates(root)
}

// handlePatchDataset routes a scene mutation by the parent digest with
// ring failover, records the successor's lineage for later routing, and
// replicates the patch to the remaining candidates: applying the same
// ops to the same parent derives the same successor digest on every
// peer.
func (p *Proxy) handlePatchDataset(w http.ResponseWriter, r *http.Request) {
	if p.rejectDraining(w, r) {
		return
	}
	body, ok := readBody(w, r, p.opts.MaxUploadBytes)
	if !ok {
		return
	}
	digest := r.PathValue("digest")
	path := "/v1/datasets/" + digest
	cands := p.routeDigest(digest)
	p.tryCandidates(w, r, cands, http.MethodPatch, path, body, func(winner string, raw *client.RawResponse) {
		if raw.Status != http.StatusCreated {
			return
		}
		var pr api.PatchResponse
		if err := json.Unmarshal(raw.Body, &pr); err != nil || pr.Dataset.Digest == "" {
			return
		}
		if pr.Dataset.Digest != digest {
			p.mu.Lock()
			p.childOf.put(pr.Dataset.Digest, digest, 0)
			p.mu.Unlock()
		}
		n := p.replicate(r, cands, winner, http.MethodPatch, path, body)
		p.trace.Annotate("proxy.patch", fmt.Sprintf("parent=%s child=%s replicas=%d",
			digest[:min(12, len(digest))], pr.Dataset.Digest[:min(12, len(pr.Dataset.Digest))], n))
	})
}

// handleDeleteDataset fans a deletion out to every candidate holding a
// replica, merging the per-peer invalidation counts into one response.
// Any peer answering 200 makes the merged response a success; if none
// held the dataset the last definitive answer (the 404) is relayed.
func (p *Proxy) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	if p.rejectDraining(w, r) {
		return
	}
	digest := r.PathValue("digest")
	path := "/v1/datasets/" + digest
	merged := api.DeleteResponse{Digest: digest}
	var last *client.RawResponse
	attempts := 0
	for _, peer := range p.routeDigest(digest) {
		attempts++
		raw, err := p.forward(r, peer, http.MethodDelete, path, nil)
		if err != nil || raw.Status >= 500 {
			p.trace.Add("proxy.failovers", 1)
			continue
		}
		last = raw
		if raw.Status == http.StatusOK {
			var dr api.DeleteResponse
			if json.Unmarshal(raw.Body, &dr) == nil {
				merged.Deleted = true
				merged.ResultsInvalidated += dr.ResultsInvalidated
			}
		}
	}
	switch {
	case merged.Deleted:
		p.trace.Add("proxy.forwarded", 1)
		writeJSON(w, http.StatusOK, merged)
	case last != nil:
		p.trace.Add("proxy.forwarded", 1)
		respondRaw(w, last)
	default:
		p.trace.Add("proxy.errors", 1)
		writeError(w, r, http.StatusBadGateway, api.CodeUpstream,
			"no peer of %d could serve DELETE %s", attempts, path)
	}
}

// handleListDatasets merges every peer's dataset listing, deduplicating
// replicated digests, ordered by digest like a single node's answer.
func (p *Proxy) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	seen := make(map[string]api.DatasetInfo)
	reached := 0
	for _, peer := range p.opts.Peers {
		raw, err := p.forward(r, peer, http.MethodGet, "/v1/datasets", nil)
		if err != nil || raw.Status != http.StatusOK {
			p.trace.Add("proxy.failovers", 1)
			continue
		}
		reached++
		var list api.DatasetList
		if json.Unmarshal(raw.Body, &list) != nil {
			continue
		}
		for _, di := range list.Datasets {
			seen[di.Digest] = di
		}
	}
	if reached == 0 {
		p.trace.Add("proxy.errors", 1)
		writeError(w, r, http.StatusBadGateway, api.CodeUpstream, "no peer of %d could list datasets", len(p.opts.Peers))
		return
	}
	list := api.DatasetList{Datasets: make([]api.DatasetInfo, 0, len(seen))}
	for _, di := range seen {
		list.Datasets = append(list.Datasets, di)
	}
	sort.Slice(list.Datasets, func(i, j int) bool { return list.Datasets[i].Digest < list.Datasets[j].Digest })
	p.trace.Add("proxy.forwarded", 1)
	writeJSON(w, http.StatusOK, list)
}

// handleHealthz reports the front's own liveness, marked role "front".
func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := api.Health{
		Status:       "ok",
		Version:      buildinfo.String(),
		UptimeMillis: time.Since(p.started).Milliseconds(),
		Role:         "front",
		Peers:        len(p.opts.Peers),
	}
	status := http.StatusOK
	if p.Draining() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// Metrics snapshots the front's routing state.
func (p *Proxy) Metrics() api.Metrics {
	p.mu.Lock()
	tracked := p.jobPeer.len()
	p.mu.Unlock()
	counters := p.trace.Counters()
	return api.Metrics{
		Obs: api.ObsCounters{Counters: counters},
		Ring: &api.RingStats{
			Peers:       p.opts.Peers,
			Replicas:    p.opts.Replicas,
			Forwarded:   counters["proxy.forwarded"],
			Failovers:   counters["proxy.failovers"],
			Errors:      counters["proxy.errors"],
			TrackedJobs: tracked,
		},
		UptimeMillis: time.Since(p.started).Milliseconds(),
	}
}

// handleMetrics serves the routing snapshot.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, p.Metrics())
}
