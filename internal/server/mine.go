package server

import (
	"context"
	"fmt"

	"repro/api"
	"repro/internal/colocation"
	"repro/internal/core"
	"repro/internal/obs"
)

// The wire documents are defined once in repro/api (shared with the
// typed client and the multi-node proxy, so the surfaces cannot drift)
// and aliased here under their historical names.
type (
	// MineRequest is the body of POST /v1/mine and POST /v1/jobs.
	MineRequest = api.MineRequest
	// MineResponse is the mining result document.
	MineResponse = api.MineResponse
	// ItemsetResult is one frequent itemset with its absolute support.
	ItemsetResult = api.ItemsetResult
	// RuleResult is one association rule.
	RuleResult = api.RuleResult
)

// errUnknownDataset is returned (wrapped) when a request names a digest
// the store does not hold; handlers map it to 404.
type errUnknownDataset string

func (e errUnknownDataset) Error() string {
	return fmt.Sprintf("server: unknown dataset %q (upload it first)", string(e))
}

// mine resolves the request's dataset, consults the result cache, and
// otherwise joins the single-flight group for the request's cache key:
// concurrent identical (dataset, canonical config) requests share one
// computation and one cache fill, and identical requests after the
// first completes are cache hits that never re-mine.
func (s *Server) mine(ctx context.Context, req MineRequest) (*MineResponse, error) {
	ds, ok := s.store.Get(req.Dataset)
	if !ok {
		return nil, errUnknownDataset(req.Dataset)
	}
	var key string
	var err error
	if req.Colocate != nil {
		key, err = ColocateCacheKey(ds.Digest, *req.Colocate)
	} else {
		key, err = CacheKey(ds.Digest, req.Config)
	}
	if err != nil {
		return nil, err
	}
	if resp, ok := s.cache.Get(key); ok {
		s.trace.Add("server.cache.hits", 1)
		return resp, nil
	}
	s.trace.Add("server.cache.misses", 1)
	return s.flights.do(ctx, s.baseCtx, key, func(runCtx context.Context) (*MineResponse, error) {
		return s.compute(runCtx, ds, key, req)
	})
}

// compute runs one cache-missing key's computation and fills the result
// cache: co-location, a scene through the delta pipeline, or a table.
// At most one compute per key is in flight at any time (enforced by the
// flight group); the server.mine.runs and server.colocate.runs counters
// tally real executions of each workload, which the coalescing tests and
// the serve-mix benchmark pin against the number of requests served.
func (s *Server) compute(ctx context.Context, ds *StoredDataset, key string, req MineRequest) (*MineResponse, error) {
	if req.Colocate != nil {
		s.trace.Add("server.colocate.runs", 1)
	} else {
		s.trace.Add("server.mine.runs", 1)
	}
	if s.mineHook != nil {
		// Test seam: lets tests hold a "running" computation open deterministically.
		if err := s.mineHook(ctx); err != nil {
			return nil, err
		}
	}
	ctx = obs.WithTrace(ctx, s.trace)
	var resp *MineResponse
	var err error
	switch {
	case req.Colocate != nil && ds.Kind != KindScene:
		err = fmt.Errorf("server: dataset %q is a %s; co-location needs a scene", ds.Digest, ds.Kind)
	case req.Colocate != nil:
		var res *colocation.Result
		if res, err = colocation.MineContext(ctx, ds.Scene, *req.Colocate); err == nil {
			resp = buildColocateResponse(ds.Digest, res)
		}
	case ds.Kind == KindScene:
		// Scenes route through the delta pipeline: the extraction state is
		// reused across requests, and PATCH successors re-extract only the
		// dirty region and patch the parent's cached result forward.
		resp, err = s.computeScene(ctx, ds, key, req.Config)
	default:
		var out *core.Outcome
		if out, err = core.RunTableContext(ctx, ds.Table, req.Config); err == nil {
			resp = buildResponse(ds.Digest, out, req.Config)
		}
	}
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, resp)
	return resp, nil
}

// buildResponse converts a pipeline outcome to the wire form.
func buildResponse(digest string, out *core.Outcome, cfg core.Config) *MineResponse {
	res := out.Result
	resp := &MineResponse{
		Algorithm:         cfg.Algorithm.String(),
		Dataset:           digest,
		Transactions:      res.NumTransactions,
		MinSupportCount:   res.MinSupportCount,
		PrunedDeps:        res.PrunedDeps,
		PrunedSameFeature: res.PrunedSameFeature,
		MiningMicros:      res.Duration.Microseconds(),
		Frequent:          make([]ItemsetResult, 0, len(res.Frequent)),
	}
	for _, f := range res.Frequent {
		resp.Frequent = append(resp.Frequent, ItemsetResult{Items: f.Items.Names(out.DB.Dict), Support: f.Support})
	}
	for _, r := range out.Rules {
		resp.Rules = append(resp.Rules, RuleResult{
			Antecedent: r.Antecedent.Names(out.DB.Dict),
			Consequent: r.Consequent.Names(out.DB.Dict),
			Support:    r.Support,
			Confidence: r.Confidence,
			Lift:       r.Lift,
		})
	}
	return resp
}
