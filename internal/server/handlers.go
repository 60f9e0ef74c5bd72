package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/api"
	"repro/internal/buildinfo"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// route is one entry of the endpoint table: the method and its /v1
// pattern. The table is data so the routing test can enumerate the
// surface without guessing.
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
		{"POST", "/v1/datasets/scene", s.handleUploadScene},
		{"POST", "/v1/datasets/table", s.handleUploadTable},
		{"GET", "/v1/datasets", s.handleListDatasets},
		{"GET", "/v1/datasets/{digest}", s.handleGetDataset},
		{"PATCH", "/v1/datasets/{digest}", s.handlePatchDataset},
		{"DELETE", "/v1/datasets/{digest}", s.handleDeleteDataset},
		{"POST", "/v1/mine", s.handleMine},
		{"POST", "/v1/colocate", s.handleColocate},
		{"POST", "/v1/jobs", s.handleSubmitJob},
		{"POST", "/v1/colocate/jobs", s.handleSubmitColocateJob},
		{"GET", "/v1/jobs/{id}", s.handleGetJob},
		{"DELETE", "/v1/jobs/{id}", s.handleCancelJob},
	}
}

// routes wires the endpoint table: every handler under its /v1 path.
func (s *Server) routes() {
	for _, rt := range s.routeTable() {
		s.mux.HandleFunc(rt.Method+" "+rt.V1, rt.handler)
	}
	// Unknown paths answer with the structured envelope instead of the
	// mux's plain-text default.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, r, http.StatusNotFound, api.CodeNotFound, "no such endpoint %s %s", r.Method, r.URL.Path)
	})
}

// rejectDraining writes the shutdown 503 and reports whether it did.
func (s *Server) rejectDraining(w http.ResponseWriter, r *http.Request) bool {
	if !s.Draining() {
		return false
	}
	writeError(w, r, http.StatusServiceUnavailable, api.CodeDraining, "server is shutting down")
	return true
}

// readBody reads a size-capped request body.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes))
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

// handleUploadScene stores a WKT-JSON scene (see dataset.WriteJSON).
func (s *Server) handleUploadScene(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w, r) {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	d, err := dataset.ReadJSON(bytes.NewReader(body))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	if err := d.Validate(); err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	sd, err := s.store.PutScene(body, d)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	s.trace.Add("server.datasets.scene_uploads", 1)
	writeJSON(w, http.StatusCreated, infoOf(sd))
}

// handleUploadTable stores a transaction-table CSV (refID,item,...).
func (s *Server) handleUploadTable(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w, r) {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	t, err := dataset.ReadTableCSV(bytes.NewReader(body))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	if t.Len() == 0 {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "table has no transactions")
		return
	}
	sd, err := s.store.PutTable(body, t)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	s.trace.Add("server.datasets.table_uploads", 1)
	writeJSON(w, http.StatusCreated, infoOf(sd))
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
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req api.PatchRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "decoding patch: %v", err)
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

// decodeMineRequest parses and sanity-checks a mining request body.
func (s *Server) decodeMineRequest(w http.ResponseWriter, r *http.Request) (MineRequest, bool) {
	body, ok := s.readBody(w, r)
	if !ok {
		return MineRequest{}, false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req MineRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "decoding request: %v", err)
		return MineRequest{}, false
	}
	if req.Dataset == "" {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "request needs a %q digest from a dataset upload", "dataset")
		return MineRequest{}, false
	}
	if req.Colocate != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "co-location requests go to POST /v1/colocate")
		return MineRequest{}, false
	}
	if req.Config.MinSupport <= 0 || req.Config.MinSupport > 1 {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "minSupport must be in (0, 1]")
		return MineRequest{}, false
	}
	return req, true
}

// handleMine mines synchronously under the request deadline.
func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w, r) {
		return
	}
	req, ok := s.decodeMineRequest(w, r)
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
		// pipeline (bad minsup, counting/engine mismatch, ...).
		writeError(w, r, http.StatusUnprocessableEntity, api.CodeConfigInvalid, "%v", err)
	}
}

// handleSubmitJob enqueues an async mining job.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w, r) {
		return
	}
	req, ok := s.decodeMineRequest(w, r)
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
