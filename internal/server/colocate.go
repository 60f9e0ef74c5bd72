package server

import (
	"encoding/json"
	"fmt"

	"repro/api"
	"repro/internal/colocation"
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

// decodeColocate decodes a POST /v1/colocate or /v1/colocate/jobs body
// into the MineRequest form, its config under Colocate.
func decodeColocate(body []byte) (MineRequest, error) {
	var req api.ColocateRequest
	if err := decodeBody(body, "request", &req); err != nil {
		return MineRequest{}, err
	}
	if req.Dataset == "" {
		return MineRequest{}, errNoDataset
	}
	if err := req.Config.Validate(); err != nil {
		return MineRequest{}, err
	}
	return MineRequest{Dataset: req.Dataset, TimeoutMillis: req.TimeoutMillis, Colocate: &req.Config}, nil
}
