package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/api"
	"repro/internal/colocation"
	"repro/internal/obs"
)

// ColocateCacheKey canonicalises a co-location request to its
// result-cache key: the dataset digest plus the deterministic JSON
// encoding of the config wrapped in a {"colocate": ...} envelope. The
// wrapper keeps co-location keys disjoint from transaction-mining keys
// for the same dataset (core.Config's canonical JSON never starts with
// that member), while persist.splitKey still sees digest | config.
func ColocateCacheKey(digest string, cfg colocation.Config) (string, error) {
	canonical, err := json.Marshal(struct {
		Colocate colocation.Config `json:"colocate"`
	}{cfg})
	if err != nil {
		return "", fmt.Errorf("server: canonicalising colocate config: %w", err)
	}
	return digest + "|" + string(canonical), nil
}

// computeColocation runs the co-location engine once for a cache-missing
// key and fills the result cache, mirroring compute for the transaction
// pipeline. Runs are tallied separately (server.colocate.runs) so
// coalescing tests can pin each workload's execution count.
func (s *Server) computeColocation(ctx context.Context, ds *StoredDataset, key string, cfg colocation.Config) (*MineResponse, error) {
	s.trace.Add("server.colocate.runs", 1)
	if s.mineHook != nil {
		// Same test seam as compute: lets tests hold a running
		// computation open deterministically.
		if err := s.mineHook(ctx); err != nil {
			return nil, err
		}
	}
	if ds.Kind != KindScene {
		return nil, fmt.Errorf("server: dataset %q is a %s; co-location needs a scene", ds.Digest, ds.Kind)
	}
	ctx = obs.WithTrace(ctx, s.trace)
	res, err := colocation.MineContext(ctx, ds.Scene, cfg)
	if err != nil {
		return nil, err
	}
	resp := buildColocateResponse(ds.Digest, res)
	s.cache.Put(key, resp)
	return resp, nil
}

// buildColocateResponse converts an engine result to the wire form.
func buildColocateResponse(digest string, res *colocation.Result) *MineResponse {
	cr := &api.ColocationResult{
		Distance:       res.Distance,
		MinPI:          res.MinPI,
		Types:          res.Types,
		Instances:      res.Instances,
		CandidatePairs: res.CandidatePairs,
		RefinedPairs:   res.RefinedPairs,
		Prevalent:      make([]api.ColocationPattern, 0, len(res.Prevalent)),
	}
	for _, p := range res.Prevalent {
		cr.Prevalent = append(cr.Prevalent, api.ColocationPattern{
			Types:              p.Types,
			ParticipationIndex: p.PI,
			RowInstances:       p.Rows,
		})
	}
	return &MineResponse{
		Algorithm:    "colocation",
		Dataset:      digest,
		MiningMicros: res.Duration.Microseconds(),
		Frequent:     []ItemsetResult{},
		Colocation:   cr,
	}
}

// decodeColocateRequest parses and sanity-checks a co-location request
// body, returning it converted to the internal MineRequest form the
// cache, single-flight group, and job manager all share.
func (s *Server) decodeColocateRequest(w http.ResponseWriter, r *http.Request) (MineRequest, bool) {
	body, ok := s.readBody(w, r)
	if !ok {
		return MineRequest{}, false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req api.ColocateRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "decoding request: %v", err)
		return MineRequest{}, false
	}
	// Strict like colocation.ParseConfig: one document, nothing after it.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "decoding request: trailing data after the request document")
		return MineRequest{}, false
	}
	if req.Dataset == "" {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "request needs a %q digest from a dataset upload", "dataset")
		return MineRequest{}, false
	}
	if err := req.Config.Validate(); err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return MineRequest{}, false
	}
	cfg := req.Config
	return MineRequest{Dataset: req.Dataset, TimeoutMillis: req.TimeoutMillis, Colocate: &cfg}, true
}

// handleColocate mines co-locations synchronously under the request
// deadline (POST /v1/colocate).
func (s *Server) handleColocate(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w, r) {
		return
	}
	req, ok := s.decodeColocateRequest(w, r)
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

// handleSubmitColocateJob enqueues an async co-location job (POST
// /v1/colocate/jobs). The job rides the same manager, queue, journal,
// and /v1/jobs/{id} poll/cancel surface as transaction-mining jobs.
func (s *Server) handleSubmitColocateJob(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w, r) {
		return
	}
	req, ok := s.decodeColocateRequest(w, r)
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
