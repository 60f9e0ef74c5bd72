// Package client is the typed Go client for the qsrmined /v1 HTTP API.
// It speaks the wire contract defined in repro/api — the same package
// the server compiles against — so client and server cannot drift: the
// multi-node proxy and the server's own end-to-end tests are built on
// this client.
//
//	c := client.New("http://localhost:8080")
//	info, err := c.UploadDataset(ctx, api.KindScene, sceneJSON)
//	resp, err := c.Mine(ctx, api.MineRequest{Dataset: info.Digest, Config: cfg})
//
// Every call is context-aware; WithTimeout installs a default per-call
// deadline applied whenever the caller's context has none. Non-2xx
// responses surface as *APIError carrying the machine-readable code,
// message, and request ID from the /v1 error envelope.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/api"
)

// Client talks to one qsrmined node (or front router). Safe for
// concurrent use.
type Client struct {
	base    string
	httpc   *http.Client
	timeout time.Duration
}

// Option customises a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (connection pools, TLS,
// test doubles). The default is a dedicated http.Client with no global
// timeout — deadlines come from contexts.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.httpc = h }
}

// WithTimeout sets the default per-call deadline, applied only when the
// caller's context carries none. Zero means no default deadline.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// New returns a Client for the node at baseURL (scheme://host[:port],
// with or without a trailing slash).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:  strings.TrimRight(baseURL, "/"),
		httpc: &http.Client{},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the node address the client was built with.
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx /v1 response, decoded from the uniform error
// envelope. Code is "" when the body was not an envelope (e.g. a
// plain-text 405 from the mux).
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error class.
	Code api.ErrorCode
	// Message is the human-readable explanation.
	Message string
	// RequestID correlates the failure across nodes and logs.
	RequestID string
	// RetryAfter is the server's back-off hint in seconds (0 if none).
	RetryAfter int
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("qsrmined: HTTP %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("qsrmined: %s (HTTP %d): %s", e.Code, e.Status, e.Message)
}

// ErrCode extracts the machine code from err ("" when err is not an
// *APIError).
func ErrCode(err error) api.ErrorCode {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// IsNotFound reports whether err is a /v1 not_found error.
func IsNotFound(err error) bool { return ErrCode(err) == api.CodeNotFound }

// IsRetryable reports whether err signals a transient condition the
// caller may retry after a back-off (draining node, full queue,
// unreachable upstream).
func IsRetryable(err error) bool {
	switch ErrCode(err) {
	case api.CodeDraining, api.CodeQueueFull, api.CodeUpstream:
		return true
	}
	return false
}

// RawResponse is an uninterpreted upstream response: status, headers,
// and the exact body bytes. The multi-node proxy forwards these to its
// own client unchanged, which is what makes front-node responses
// byte-identical to direct single-node responses.
type RawResponse struct {
	Status int
	Header http.Header
	Body   []byte
}

// Forward performs one HTTP exchange without interpreting the response:
// the returned error is non-nil only for transport failures (connection
// refused, deadline, ...), never for HTTP error statuses. header may be
// nil; a Content-Type of application/json is assumed for non-empty
// bodies unless header overrides it.
func (c *Client) Forward(ctx context.Context, method, path string, header http.Header, body []byte) (*RawResponse, error) {
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: building %s %s: %w", method, path, err)
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s%s: %w", method, c.base, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: reading %s %s response: %w", method, path, err)
	}
	return &RawResponse{Status: resp.StatusCode, Header: resp.Header, Body: raw}, nil
}

// callCtx applies the default per-call deadline when ctx has none.
func (c *Client) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout <= 0 {
		return ctx, func() {}
	}
	if _, has := ctx.Deadline(); has {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.timeout)
}

// apiErr converts a non-2xx RawResponse into an *APIError.
func apiErr(raw *RawResponse) *APIError {
	ae := &APIError{Status: raw.Status}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw.Body, &env); err == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
		ae.RequestID = env.Error.RequestID
	} else {
		ae.Message = strings.TrimSpace(string(raw.Body))
	}
	if ra := raw.Header.Get("Retry-After"); ra != "" {
		fmt.Sscanf(ra, "%d", &ae.RetryAfter)
	}
	return ae
}

// doJSON performs one typed call: marshal in (unless nil), decode the
// 2xx response into out (unless nil), map everything else to *APIError.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding %s %s request: %w", method, path, err)
		}
	}
	raw, err := c.Forward(ctx, method, path, nil, body)
	if err != nil {
		return err
	}
	if raw.Status >= 300 {
		return apiErr(raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw.Body, out); err != nil {
			return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// UploadDataset uploads a dataset body of the given kind (api.KindScene
// for WKT-JSON scenes, api.KindTable for transaction CSVs) and returns
// its content-addressed metadata. Re-uploading identical bytes is
// idempotent and yields the same digest.
func (c *Client) UploadDataset(ctx context.Context, kind api.DatasetKind, body []byte) (api.DatasetInfo, error) {
	var path string
	switch kind {
	case api.KindScene:
		path = "/v1/datasets/scene"
	case api.KindTable:
		path = "/v1/datasets/table"
	default:
		return api.DatasetInfo{}, fmt.Errorf("client: unknown dataset kind %q", kind)
	}
	raw, err := c.Forward(ctx, http.MethodPost, path, nil, body)
	if err != nil {
		return api.DatasetInfo{}, err
	}
	if raw.Status >= 300 {
		return api.DatasetInfo{}, apiErr(raw)
	}
	var info api.DatasetInfo
	if err := json.Unmarshal(raw.Body, &info); err != nil {
		return api.DatasetInfo{}, fmt.Errorf("client: decoding upload response: %w", err)
	}
	return info, nil
}

// GetDataset fetches upload metadata for a stored digest.
func (c *Client) GetDataset(ctx context.Context, digest string) (api.DatasetInfo, error) {
	var info api.DatasetInfo
	err := c.doJSON(ctx, http.MethodGet, "/v1/datasets/"+digest, nil, &info)
	return info, err
}

// ListDatasets enumerates the stored datasets (merged across the
// cluster when talking to a front node), ordered by digest.
func (c *Client) ListDatasets(ctx context.Context) ([]api.DatasetInfo, error) {
	var list api.DatasetList
	if err := c.doJSON(ctx, http.MethodGet, "/v1/datasets", nil, &list); err != nil {
		return nil, err
	}
	return list.Datasets, nil
}

// PatchDataset applies a mutation batch to a stored scene and returns
// the content-addressed successor with its lineage. The parent dataset
// is immutable and stays stored; mining the successor digest reuses the
// parent's extraction and mining state through the delta pipeline.
func (c *Client) PatchDataset(ctx context.Context, digest string, req api.PatchRequest) (*api.PatchResponse, error) {
	var resp api.PatchResponse
	if err := c.doJSON(ctx, http.MethodPatch, "/v1/datasets/"+digest, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// DeleteDataset removes a stored dataset and invalidates every cached
// mining result derived from it (summed across replicas when talking
// to a front node).
func (c *Client) DeleteDataset(ctx context.Context, digest string) (*api.DeleteResponse, error) {
	var resp api.DeleteResponse
	if err := c.doJSON(ctx, http.MethodDelete, "/v1/datasets/"+digest, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Mine runs a synchronous mining request.
func (c *Client) Mine(ctx context.Context, req api.MineRequest) (*api.MineResponse, error) {
	var resp api.MineResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/mine", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Colocate runs a synchronous co-location mining request; the result's
// Colocation block carries the prevalent feature-type sets, cached by
// the server under the dataset digest and the full config.
func (c *Client) Colocate(ctx context.Context, req api.ColocateRequest) (*api.MineResponse, error) {
	var resp api.MineResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/colocate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitColocateJob enqueues an async co-location job; poll and cancel
// it through the shared /v1/jobs/{id} surface (PollJob, WaitJob,
// CancelJob).
func (c *Client) SubmitColocateJob(ctx context.Context, req api.ColocateRequest) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.doJSON(ctx, http.MethodPost, "/v1/colocate/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// SubmitJob enqueues an async mining job and returns its initial
// status (state queued or running).
func (c *Client) SubmitJob(ctx context.Context, req api.MineRequest) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// PollJob fetches a job's current status (result included once done).
func (c *Client) PollJob(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// CancelJob requests cancellation of a queued or running job and
// returns the state observed at cancellation time.
func (c *Client) CancelJob(ctx context.Context, id string) (api.JobState, error) {
	var out struct {
		State api.JobState `json:"state"`
	}
	if err := c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out); err != nil {
		return "", err
	}
	return out.State, nil
}

// WaitJob polls a job every interval until it reaches a terminal state
// or ctx ends. A non-positive interval polls every 10ms.
func (c *Client) WaitJob(ctx context.Context, id string, interval time.Duration) (*api.JobStatus, error) {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		st, err := c.PollJob(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// Health fetches the liveness document. Unlike the other calls it
// decodes the body even on 503: a draining node answers its health
// document with that status, and callers want the "draining" marker,
// not an error.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	raw, err := c.Forward(ctx, http.MethodGet, "/v1/healthz", nil, nil)
	if err != nil {
		return api.Health{}, err
	}
	var h api.Health
	if jsonErr := json.Unmarshal(raw.Body, &h); jsonErr == nil && h.Status != "" {
		return h, nil
	}
	if raw.Status >= 300 {
		return api.Health{}, apiErr(raw)
	}
	return api.Health{}, fmt.Errorf("client: undecodable health document %q", raw.Body)
}

// Metrics fetches the client-side view of /v1/metrics (obs counters
// plus store/cache/job — and, on a front node, ring — statistics).
func (c *Client) Metrics(ctx context.Context) (api.Metrics, error) {
	var m api.Metrics
	err := c.doJSON(ctx, http.MethodGet, "/v1/metrics", nil, &m)
	return m, err
}
