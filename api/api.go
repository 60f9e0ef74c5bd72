// Package api defines the wire contract of the qsrmined /v1 HTTP API:
// the request/response document types, the job lifecycle states, and the
// machine-readable error envelope. Both the server (internal/server) and
// the typed client (repro/client) compile against these definitions, so
// the two surfaces cannot drift — a field added here is immediately
// visible to both, and the multi-node proxy forwards documents it never
// has to re-encode.
//
// All endpoints live under the /v1 prefix; any other path answers 404
// not_found. Errors are always the JSON envelope
//
//	{"error":{"code":"not_found","message":"...","requestId":"..."}}
//
// with Code drawn from the ErrorCode constants below.
package api

import (
	"time"

	"repro/internal/colocation"
	"repro/internal/core"
	"repro/internal/dataset"
)

// DatasetKind discriminates the two upload formats.
type DatasetKind string

// Dataset kinds.
const (
	// KindScene is a WKT-JSON geographic scene (mined via extraction).
	KindScene DatasetKind = "scene"
	// KindTable is a transaction-table CSV (mined directly).
	KindTable DatasetKind = "table"
)

// DatasetInfo is the upload / metadata document (POST /v1/datasets/*,
// GET /v1/datasets/{digest}).
type DatasetInfo struct {
	// Digest is the lowercase hex SHA-256 of the upload body — the
	// content address every later request names the dataset by, and the
	// key multi-node routing consistent-hashes on.
	Digest string      `json:"digest"`
	Kind   DatasetKind `json:"kind"`
	Rows   int         `json:"rows"`
	Bytes  int64       `json:"bytes"`
}

// PatchRequest is the body of PATCH /v1/datasets/{digest}: a batch of
// feature mutations applied atomically to a stored scene, producing a
// new content-addressed successor dataset. The parent is never changed
// — datasets are immutable values; a patch is a derivation.
type PatchRequest struct {
	// Ops is the mutation batch (insert/update/delete by layer + ID).
	Ops []dataset.Op `json:"ops"`
}

// PatchResponse describes the successor dataset a PATCH produced, with
// its lineage back to the parent digest. Mining the successor digest
// can then reuse the parent's extraction state and cached result
// through the delta pipeline.
type PatchResponse struct {
	// Parent is the digest the mutation batch was applied to.
	Parent string `json:"parent"`
	// Dataset describes the stored successor (its digest is the content
	// address of the successor's serialised form).
	Dataset DatasetInfo `json:"dataset"`
	// Changed counts mutated features across all layers.
	Changed int `json:"changed"`
	// ByLayer is the per-layer feature diff.
	ByLayer map[string]*dataset.LayerDiff `json:"byLayer,omitempty"`
}

// DatasetList enumerates the stored datasets (GET /v1/datasets),
// ordered by digest.
type DatasetList struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// DeleteResponse acknowledges DELETE /v1/datasets/{digest}: the dataset
// is gone from the store and every cached mining result computed from
// it has been invalidated.
type DeleteResponse struct {
	Digest  string `json:"digest"`
	Deleted bool   `json:"deleted"`
	// ResultsInvalidated counts result-cache entries dropped because
	// they were keyed to this digest.
	ResultsInvalidated int `json:"resultsInvalidated"`
}

// MineRequest is the body of POST /v1/mine and POST /v1/jobs: which
// stored dataset to mine and the full pipeline configuration. Config is
// core.Config's JSON form — algorithm, minSupport, dependencies,
// postFilter, rules, and (for scenes) the extraction options. It names
// no pool width: every pool is GOMAXPROCS wide.
type MineRequest struct {
	// Dataset is the digest returned by a dataset upload.
	Dataset string `json:"dataset"`
	// Config is the pipeline configuration.
	Config core.Config `json:"config"`
	// TimeoutMillis bounds this request's wall time; 0 uses the server
	// default.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// Colocate, when set, makes this a co-location request: the scene's
	// feature types are mined for prevalent co-located sets under
	// Colocate's distance/minPI instead of running the transaction
	// pipeline, and Config is ignored. POST /v1/colocate fills this
	// internally; it also keys the result cache, the single-flight
	// group, and the job journal, which is why the one request type
	// carries both workloads.
	Colocate *colocation.Config `json:"colocate,omitempty"`
}

// ColocateRequest is the body of POST /v1/colocate and POST
// /v1/colocate/jobs: which stored scene to mine and the co-location
// configuration (neighborhood distance, minimum participation index,
// optional size cap, and top-k truncation). The config
// decodes strictly: an unknown field is a 400 bad_request naming it.
// "topK" > 0 keeps only the k highest-PI prevalent patterns (ties
// broken by smaller size, then name order).
type ColocateRequest struct {
	// Dataset is the digest returned by a scene upload.
	Dataset string `json:"dataset"`
	// Config is the co-location configuration.
	Config colocation.Config `json:"config"`
	// TimeoutMillis bounds this request's wall time; 0 uses the server
	// default.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
}

// MineResponse is the mining result: the frequent itemsets (all sizes),
// optional association rules, and the run's headline numbers.
type MineResponse struct {
	Algorithm         string          `json:"algorithm"`
	Dataset           string          `json:"dataset"`
	Transactions      int             `json:"transactions"`
	MinSupportCount   int             `json:"minSupportCount"`
	PrunedDeps        int             `json:"prunedDependencies"`
	PrunedSameFeature int             `json:"prunedSameFeature"`
	MiningMicros      int64           `json:"miningMicros"`
	Frequent          []ItemsetResult `json:"frequent"`
	Rules             []RuleResult    `json:"rules,omitempty"`
	// Cached reports whether this response was served from the result
	// cache without re-mining. Coalesced responses (followers of a
	// single-flight leader) are not marked cached: they shared the one
	// computation and are byte-identical to the leader's response.
	Cached bool `json:"cached,omitempty"`
	// Colocation carries the co-location result when the request was a
	// co-location mine (Algorithm "colocation"); the transaction fields
	// above are then zero. Persisted results hash the whole response,
	// so this block participates in the digest chain like any other.
	Colocation *ColocationResult `json:"colocation,omitempty"`
}

// ColocationResult is the co-location block of a MineResponse: the
// prevalent feature-type sets with their participation indices, plus
// the neighborhood-materialization counters.
type ColocationResult struct {
	// Distance and MinPI echo the mined configuration.
	Distance float64 `json:"distance"`
	MinPI    float64 `json:"minPI"`
	// Types are the feature types considered (those with instances).
	Types []string `json:"types"`
	// Instances is the total instance count across Types.
	Instances int `json:"instances"`
	// CandidatePairs / RefinedPairs count the R-tree filter stage's
	// candidate neighbor pairs and the pairs surviving exact distance
	// refinement.
	CandidatePairs int64 `json:"candidatePairs"`
	RefinedPairs   int64 `json:"refinedPairs"`
	// Prevalent are the patterns with PI >= MinPI, sorted by size then
	// lexicographically by type names.
	Prevalent []ColocationPattern `json:"prevalent"`
}

// ColocationPattern is one prevalent co-location.
type ColocationPattern struct {
	Types []string `json:"types"`
	// ParticipationIndex is min over the pattern's types of the
	// fraction of that type's instances in at least one row instance.
	ParticipationIndex float64 `json:"participationIndex"`
	// RowInstances counts the pattern's supporting neighbor cliques.
	RowInstances int `json:"rowInstances"`
}

// ItemsetResult is one frequent itemset with its absolute support.
type ItemsetResult struct {
	Items   []string `json:"items"`
	Support int      `json:"support"`
}

// RuleResult is one association rule.
type RuleResult struct {
	Antecedent []string `json:"antecedent"`
	Consequent []string `json:"consequent"`
	Support    float64  `json:"support"`
	Confidence float64  `json:"confidence"`
	Lift       float64  `json:"lift"`
}

// JobState is the lifecycle state of an async mining job.
type JobState string

// Job states. Queued and running jobs are live; the other states are
// terminal.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobStatus is the wire form of a job (GET /v1/jobs/{id}). IDs carry a
// per-process random prefix, so they stay unique across the nodes of a
// cluster and a front node can route polls by ID alone.
type JobStatus struct {
	ID         string        `json:"id"`
	State      JobState      `json:"state"`
	Dataset    string        `json:"dataset"`
	CreatedAt  time.Time     `json:"createdAt"`
	StartedAt  *time.Time    `json:"startedAt,omitempty"`
	FinishedAt *time.Time    `json:"finishedAt,omitempty"`
	Error      string        `json:"error,omitempty"`
	Result     *MineResponse `json:"result,omitempty"`
	// Lost marks a failed job that was in flight (or queued beyond
	// recovery capacity) when the server crashed: the write-ahead journal
	// recorded its start but no completion, so after a restart it is
	// reported failed with this flag rather than silently vanishing.
	Lost bool `json:"lost,omitempty"`
}

// Health is the liveness document (GET /v1/healthz). A draining node
// answers Status "draining" with HTTP 503 so load balancers stop
// routing to it.
type Health struct {
	Status       string `json:"status"`
	Version      string `json:"version"`
	UptimeMillis int64  `json:"uptimeMillis"`
	// Role distinguishes a mining node ("node", the default when empty)
	// from a multi-node front router ("front").
	Role string `json:"role,omitempty"`
	// Peers is the front node's configured peer count (front role only).
	Peers int `json:"peers,omitempty"`
	// Persist is "disk" on a node started with -data-dir; empty (memory
	// only) otherwise.
	Persist string `json:"persist,omitempty"`
}

// StoreStats is the dataset store's /v1/metrics snapshot.
type StoreStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions"`
}

// CacheStats is the result cache's /v1/metrics snapshot.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// JobStats is the job manager's /v1/metrics snapshot.
type JobStats struct {
	Submitted int64 `json:"submitted"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
}

// PersistStats is the persistence tier's /v1/metrics snapshot (nodes
// started with -data-dir only).
type PersistStats struct {
	// Enabled is always true when the block is present.
	Enabled bool `json:"enabled"`
	// Datasets / Results count the artifact files currently on disk.
	Datasets int `json:"datasets"`
	Results  int `json:"results"`
	// WALRecords counts journal records appended (and fsynced) by this
	// process; WALTruncated counts torn journal tails dropped at replay.
	WALRecords   int64 `json:"walRecords"`
	WALTruncated int64 `json:"walTruncated,omitempty"`
	// DatasetReloads counts datasets lazily re-parsed from disk after a
	// store miss (typically after a restart or an LRU eviction).
	DatasetReloads int64 `json:"datasetReloads"`
	// ResultHits counts persisted results served after digest-chain
	// verification; VerifyFailures counts corrupt or mismatched entries
	// discarded (and recomputed) instead.
	ResultHits     int64 `json:"resultHits"`
	VerifyFailures int64 `json:"verifyFailures"`
	// SaveErrors counts failed persistence writes (service degraded to
	// memory-only for the affected artifact).
	SaveErrors int64 `json:"saveErrors"`
	// JobsRecovered / JobsLost tally the startup journal replay:
	// re-enqueued never-started jobs and in-flight jobs marked failed
	// with lost: true.
	JobsRecovered int64 `json:"jobsRecovered"`
	JobsLost      int64 `json:"jobsLost"`
}

// RingStats is the front node's routing snapshot (front role only).
type RingStats struct {
	// Peers are the configured peer base URLs in ring order of
	// configuration (not ring position).
	Peers []string `json:"peers"`
	// Replicas is the number of peers each dataset digest is routed to.
	Replicas int `json:"replicas"`
	// Forwarded counts successfully proxied requests.
	Forwarded int64 `json:"forwarded"`
	// Failovers counts peer attempts skipped over a connection error or
	// 5xx before a later candidate answered.
	Failovers int64 `json:"failovers"`
	// Errors counts requests for which every candidate peer failed.
	Errors int64 `json:"errors"`
	// TrackedJobs is the size of the job-ID → peer routing table.
	TrackedJobs int `json:"trackedJobs"`
}

// ObsCounters is the client-side view of the obs block in /v1/metrics:
// just the named counters. The server document carries more (stage
// spans, mining passes); clients that need those decode the raw body.
type ObsCounters struct {
	Counters map[string]int64 `json:"counters"`
}

// Metrics is the client-side view of GET /v1/metrics, shared by mining
// nodes and front routers. Fields a role does not populate decode to
// their zero values.
type Metrics struct {
	Obs          ObsCounters   `json:"obs"`
	Store        StoreStats    `json:"store"`
	Cache        CacheStats    `json:"cache"`
	Jobs         JobStats      `json:"jobs"`
	Persist      *PersistStats `json:"persist,omitempty"`
	Ring         *RingStats    `json:"ring,omitempty"`
	UptimeMillis int64         `json:"uptimeMillis"`
}

// ErrorCode is a machine-readable error class. Codes are stable API:
// clients branch on them, messages are for humans.
type ErrorCode string

// Error codes carried by the /v1 error envelope.
const (
	// CodeBadRequest: the request body or parameters do not parse or
	// fail static validation (HTTP 400).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeNotFound: the named dataset, job, or route does not exist
	// (HTTP 404).
	CodeNotFound ErrorCode = "not_found"
	// CodeTooLarge: the request body exceeds the configured cap
	// (HTTP 413).
	CodeTooLarge ErrorCode = "body_too_large"
	// CodeConfigInvalid: the pipeline rejected the configuration at run
	// time — bad minsup/engine combination and the like (HTTP 422).
	CodeConfigInvalid ErrorCode = "config_invalid"
	// CodeQueueFull: the bounded async job queue is at capacity; retry
	// after the Retry-After hint (HTTP 503).
	CodeQueueFull ErrorCode = "queue_full"
	// CodeDraining: the node is shutting down gracefully; retry against
	// another node after the Retry-After hint (HTTP 503).
	CodeDraining ErrorCode = "draining"
	// CodeTimeout: mining exceeded the request deadline (HTTP 504).
	CodeTimeout ErrorCode = "timeout"
	// CodeCancelled: the request's computation was cancelled (HTTP 503).
	CodeCancelled ErrorCode = "cancelled"
	// CodeUpstream: a front node could not reach any replica holding the
	// dataset (HTTP 502).
	CodeUpstream ErrorCode = "upstream_unavailable"
	// CodeInternal: unexpected server-side failure (HTTP 500).
	CodeInternal ErrorCode = "internal"
)

// ErrorBody is the inner error document.
type ErrorBody struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// RequestID echoes the X-Request-ID the failing request carried (or
	// was assigned), for cross-node log correlation.
	RequestID string `json:"requestId,omitempty"`
}

// ErrorEnvelope is the uniform error response body of every endpoint.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}
