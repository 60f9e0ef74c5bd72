package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/api"
	"repro/internal/buildinfo"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// route is one entry of an endpoint table: the method and its /v1
// pattern. The table is data so the routing tests can enumerate the
// surface without guessing, and check that a front serves a node's.
type route struct {
	Method  string
	V1      string
	handler http.HandlerFunc
}

// routeTable enumerates every endpoint once.
func (s *Server) routeTable() []route {
	return []route{
		{"GET", "/v1/healthz", s.handleHealthz},
		{"GET", "/v1/metrics", s.handleMetrics},
		{"POST", "/v1/datasets/scene", s.handleUpload(KindScene)},
		{"POST", "/v1/datasets/table", s.handleUpload(KindTable)},
		{"GET", "/v1/datasets", s.handleListDatasets},
		{"GET", "/v1/datasets/{digest}", s.handleGetDataset},
		{"PATCH", "/v1/datasets/{digest}", s.handlePatchDataset},
		{"DELETE", "/v1/datasets/{digest}", s.handleDeleteDataset},
		{"POST", "/v1/mine", s.handleSync(decodeMine)},
		{"POST", "/v1/colocate", s.handleSync(decodeColocate)},
		{"POST", "/v1/jobs", s.handleSubmit(decodeMine)},
		{"POST", "/v1/colocate/jobs", s.handleSubmit(decodeColocate)},
		{"GET", "/v1/jobs/{id}", s.handleGetJob},
		{"DELETE", "/v1/jobs/{id}", s.handleCancelJob},
	}
}

// newMux wires an endpoint table, a node's or a front's: every handler
// under its /v1 path. Unknown paths answer with the structured envelope
// instead of the mux's plain-text default.
func newMux(table []route) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range table {
		mux.HandleFunc(rt.Method+" "+rt.V1, rt.handler)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, r, http.StatusNotFound, api.CodeNotFound, "no such endpoint %s %s", r.Method, r.URL.Path)
	})
	return mux
}

// rejectDraining writes the shutdown 503 and reports whether it did.
func (s *Server) rejectDraining(w http.ResponseWriter, r *http.Request) bool {
	if !s.Draining() {
		return false
	}
	writeError(w, r, http.StatusServiceUnavailable, api.CodeDraining, "server is shutting down")
	return true
}

// readBody reads a request body capped at limit bytes, answering a body
// it cannot read (413 body_too_large, 400 bad_request). A node and a front
// both read every body through it.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusRequestEntityTooLarge, api.CodeTooLarge, "body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return body, true
}

// datasetInfo is the upload / metadata response.
type datasetInfo = api.DatasetInfo

func infoOf(sd *StoredDataset) datasetInfo {
	return datasetInfo{Digest: sd.Digest, Kind: sd.Kind, Rows: sd.Rows, Bytes: sd.Bytes}
}

// handleUpload stores an upload of one kind: a WKT-JSON scene (see
// dataset.WriteJSON) at POST /v1/datasets/scene, a transaction-table
// CSV (refID,item,...) at POST /v1/datasets/table. parseUpload decides
// what is admitted, for uploads and durable-tier reloads alike.
func (s *Server) handleUpload(kind DatasetKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.rejectDraining(w, r) {
			return
		}
		body, ok := readBody(w, r, s.opts.MaxUploadBytes)
		if !ok {
			return
		}
		sd, err := parseUpload(Digest(body), kind, body)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
			return
		}
		if sd, err = s.store.put(body, sd); err != nil {
			writeError(w, r, http.StatusInternalServerError, api.CodeInternal, "%v", err)
			return
		}
		s.trace.Add("server.datasets."+string(kind)+"_uploads", 1)
		writeJSON(w, http.StatusCreated, infoOf(sd))
	}
}

// handleGetDataset returns upload metadata for a stored digest.
func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	sd, ok := s.store.Get(r.PathValue("digest"))
	if !ok {
		writeError(w, r, http.StatusNotFound, api.CodeNotFound, "unknown dataset %q", r.PathValue("digest"))
		return
	}
	writeJSON(w, http.StatusOK, infoOf(sd))
}

// handleListDatasets enumerates the stored datasets, ordered by digest.
func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	stored := s.store.List()
	list := api.DatasetList{Datasets: make([]api.DatasetInfo, 0, len(stored))}
	for _, sd := range stored {
		list.Datasets = append(list.Datasets, infoOf(sd))
	}
	writeJSON(w, http.StatusOK, list)
}

// handlePatchDataset applies a mutation batch to a stored scene and
// stores the content-addressed successor, recording its lineage so a
// later mine of the successor can run the delta pipeline instead of
// recomputing the world. The parent dataset is immutable and remains
// stored.
func (s *Server) handlePatchDataset(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w, r) {
		return
	}
	digest := r.PathValue("digest")
	sd, ok := s.store.Get(digest)
	if !ok {
		writeError(w, r, http.StatusNotFound, api.CodeNotFound, "unknown dataset %q", digest)
		return
	}
	if sd.Kind != KindScene {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "dataset %q is a %s; only scenes can be patched", digest, sd.Kind)
		return
	}
	body, ok := readBody(w, r, s.opts.MaxUploadBytes)
	if !ok {
		return
	}
	var req api.PatchRequest
	if err := decodeBody(body, "patch", &req); err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	nd, cs, err := sd.Scene.ApplyOps(req.Ops)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	// A PATCH successor's retained encoding lets its own successor copy
	// every untouched feature's bytes. An upload has none, because its
	// body need not be in canonical form: its first PATCH renders in full.
	var enc *dataset.Encoding
	spliced := false
	if penc := s.deltas.encoding(digest); penc != nil {
		enc, spliced, err = dataset.EncodeSuccessor(penc, sd.Scene, nd, cs)
	} else {
		enc, err = nd.Encode(int(sd.Bytes) + len(body)) // the successor is about the parent plus the ops
	}
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, api.CodeInternal, "serialising successor: %v", err)
		return
	}
	if int64(len(enc.Bytes)) > s.opts.MaxUploadBytes {
		writeError(w, r, http.StatusRequestEntityTooLarge, api.CodeTooLarge, "successor exceeds %d bytes", s.opts.MaxUploadBytes)
		return
	}
	child, err := s.store.PutScene(enc.Bytes, nd)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	s.deltas.putEncoding(digest, child.Digest, enc)
	s.deltas.recordLineage(child.Digest, digest, cs)
	s.trace.Add("server.datasets.patches", 1)
	if spliced {
		s.trace.Add("server.datasets.successors_spliced", 1)
	} else {
		s.trace.Add("server.datasets.successors_rendered", 1)
	}
	writeJSON(w, http.StatusCreated, api.PatchResponse{
		Parent:  digest,
		Dataset: infoOf(child),
		Changed: cs.Count(),
		ByLayer: cs.ByLayer,
	})
}

// handleDeleteDataset removes a stored dataset — from memory and the
// durable tier — and invalidates every cached mining result and
// delta-pipeline artefact derived from it, persisted entries included.
func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !s.store.Delete(digest) {
		writeError(w, r, http.StatusNotFound, api.CodeNotFound, "unknown dataset %q", digest)
		return
	}
	invalidated := s.cache.InvalidateDataset(digest)
	if s.persist != nil {
		invalidated += s.persist.DeleteResults(digest)
	}
	s.deltas.forget(digest)
	s.trace.Add("server.datasets.deletes", 1)
	if invalidated > 0 {
		s.trace.Add("server.cache.invalidated", int64(invalidated))
	}
	writeJSON(w, http.StatusOK, api.DeleteResponse{
		Digest:             digest,
		Deleted:            true,
		ResultsInvalidated: invalidated,
	})
}

// decodeBody is the one strict body decoder behind every JSON request
// route: the body must be exactly one document for v, with no unknown
// field and nothing after it (dataset.DecodeStrict). what names the
// document in the error.
func decodeBody(body []byte, what string, v any) error {
	if err := dataset.DecodeStrict(body, v); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	return nil
}

// A requestDecoder turns one route's body into the MineRequest that the
// result cache, the flight group and the job manager share. Its error is
// the client's, answered 400 bad_request.
type requestDecoder func(body []byte) (MineRequest, error)

// errNoDataset rejects a request that names no dataset.
var errNoDataset = fmt.Errorf("request needs a %q digest from a dataset upload", "dataset")

// decodeMine decodes a POST /v1/mine or /v1/jobs body.
func decodeMine(body []byte) (MineRequest, error) {
	var req MineRequest
	if err := decodeBody(body, "request", &req); err != nil {
		return req, err
	}
	switch {
	case req.Dataset == "":
		return req, errNoDataset
	case req.Colocate != nil:
		return req, errors.New("co-location requests go to POST /v1/colocate")
	case req.Config.MinSupport <= 0 || req.Config.MinSupport > 1:
		return req, errors.New("minSupport must be in (0, 1]")
	}
	return req, nil
}

// readRequest admits one mining request: it is refused while draining
// (503), its body read (413, 400) and decoded by the route's decoder
// (400). A refused request has been answered.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, decode requestDecoder) (MineRequest, bool) {
	if s.rejectDraining(w, r) {
		return MineRequest{}, false
	}
	body, ok := readBody(w, r, s.opts.MaxUploadBytes)
	if !ok {
		return MineRequest{}, false
	}
	req, err := decode(body)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return MineRequest{}, false
	}
	return req, true
}

// handleSync mines synchronously under the request deadline: POST
// /v1/mine and POST /v1/colocate, each with its route's decoder.
func (s *Server) handleSync(decode requestDecoder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := s.readRequest(w, r, decode)
		if !ok {
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req))
		defer cancel()
		resp, err := s.mine(ctx, req)
		if err != nil {
			s.writeMineError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// writeMineError maps a mining failure to a status code and error code.
func (s *Server) writeMineError(w http.ResponseWriter, r *http.Request, err error) {
	var unknown errUnknownDataset
	switch {
	case errors.As(err, &unknown):
		writeError(w, r, http.StatusNotFound, api.CodeNotFound, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, r, http.StatusGatewayTimeout, api.CodeTimeout, "mining exceeded the request deadline")
	case errors.Is(err, context.Canceled):
		writeError(w, r, http.StatusServiceUnavailable, api.CodeCancelled, "mining was cancelled")
	default:
		// Remaining failures are configuration/data errors from the
		// pipeline (bad minsup, co-location on a table, ...).
		writeError(w, r, http.StatusUnprocessableEntity, api.CodeConfigInvalid, "%v", err)
	}
}

// handleSubmit enqueues an async job: POST /v1/jobs and POST
// /v1/colocate/jobs, each with its route's decoder. Both workloads ride
// one manager, queue and journal, polled and cancelled at /v1/jobs/{id}.
func (s *Server) handleSubmit(decode requestDecoder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := s.readRequest(w, r, decode)
		if !ok {
			return
		}
		if _, ok := s.store.Get(req.Dataset); !ok {
			writeError(w, r, http.StatusNotFound, api.CodeNotFound, "unknown dataset %q (upload it first)", req.Dataset)
			return
		}
		j, err := s.jobs.Submit(req)
		switch {
		case errors.Is(err, ErrDraining):
			writeError(w, r, http.StatusServiceUnavailable, api.CodeDraining, "%v", err)
			return
		case errors.Is(err, ErrQueueFull):
			writeError(w, r, http.StatusServiceUnavailable, api.CodeQueueFull, "%v", err)
			return
		case err != nil:
			writeError(w, r, http.StatusInternalServerError, api.CodeInternal, "%v", err)
			return
		}
		s.trace.Add("server.jobs.submitted", 1)
		st := s.jobs.Status(j)
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleGetJob returns a job's status (and result once done).
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, api.CodeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.Status(j))
}

// handleCancelJob cancels a queued or running job.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	state, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, api.CodeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.trace.Add("server.jobs.cancel_requests", 1)
	writeJSON(w, http.StatusOK, map[string]any{"id": r.PathValue("id"), "state": state})
}

// healthz is the liveness document.
type healthz = api.Health

// handleHealthz reports liveness and the build version. A draining
// server answers "draining" with 503 so load balancers stop routing.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthz{
		Status:       "ok",
		Version:      buildinfo.String(),
		UptimeMillis: time.Since(s.started).Milliseconds(),
		Role:         "node",
	}
	if s.persist != nil {
		h.Persist = "disk"
	}
	status := http.StatusOK
	if s.Draining() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// ServerMetrics is the /metrics document: the obs snapshot (stage
// spans, mining passes, counters — including the coalesce.* and eclat
// worker fan-out counters) plus the service-level
// store/cache/job statistics and, on a node with -data-dir, the
// persistence-tier block.
type ServerMetrics struct {
	Obs          obs.Metrics       `json:"obs"`
	Store        api.StoreStats    `json:"store"`
	Cache        api.CacheStats    `json:"cache"`
	Jobs         api.JobStats      `json:"jobs"`
	Persist      *api.PersistStats `json:"persist,omitempty"`
	UptimeMillis int64             `json:"uptimeMillis"`
}

// Metrics snapshots the server state (also used by tests).
func (s *Server) Metrics() ServerMetrics {
	m := ServerMetrics{
		Obs:          s.collector.Metrics(s.trace),
		Store:        s.store.Stats(),
		Cache:        s.cache.Stats(),
		Jobs:         s.jobs.Stats(),
		UptimeMillis: time.Since(s.started).Milliseconds(),
	}
	if s.persist != nil {
		ps := s.persist.PersistStats()
		ps.JobsRecovered, ps.JobsLost = s.jobs.RecoveryStats()
		m.Persist = &ps
	}
	return m
}

// handleMetrics serves the metrics snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}
