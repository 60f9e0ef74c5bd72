package server

import (
	"repro/api"
	"repro/internal/server/persist"
)

// The persistence interfaces decouple the three in-memory owners —
// dataset Store, ResultCache, JobManager — from how (and whether)
// their state survives a restart. A Server built without a Persistence
// (the default, and the only mode before -data-dir existed) behaves
// byte-identically to the historical memory-only service; with one,
// every owner writes through and lazily reads back.
//
// persist.Dir is the disk-backed implementation; tests substitute
// fakes to inject failures.

// DatasetPersistence is the durable tier behind the dataset Store:
// content-addressed upload bodies plus a kind/rows sidecar. LoadDataset
// reports fs.ErrNotExist for unknown digests and
// persist.ErrVerifyFailed for stored bytes that no longer hash to
// their content address (the entry is discarded by the implementation).
// DiscardDataset removes an entry whose bytes hash correctly but fail
// a check above the tier (the Store's parse) and counts it as a verify
// failure.
type DatasetPersistence interface {
	SaveDataset(digest string, body []byte, kind DatasetKind, rows int) error
	LoadDataset(digest string) (body []byte, kind DatasetKind, rows int, err error)
	DeleteDataset(digest string) bool
	DiscardDataset(digest string)
	ListDatasets() []api.DatasetInfo
}

// ResultPersistence is the durable tier behind the ResultCache:
// responses stamped with a {dataset, config, result} digest chain that
// LoadResult verifies before returning. A corrupt or mismatched entry
// is discarded and reported as persist.ErrVerifyFailed so the caller
// recomputes; a missing one reports fs.ErrNotExist.
type ResultPersistence interface {
	SaveResult(key string, resp *MineResponse) error
	LoadResult(key string) (*MineResponse, error)
	DeleteResults(digest string) int
}

// JobJournal is the write-ahead journal behind the JobManager: every
// job state transition is appended (and fsynced) before the transition
// is acknowledged, so a startup replay can re-enqueue never-started
// jobs and mark in-flight ones lost.
type JobJournal interface {
	AppendJob(rec persist.JobRecord) error
	ReplayJobs() ([]persist.JobRecord, error)
	CompactJobs(recs []persist.JobRecord) error
}

// Persistence is the full pluggable persistence tier a Server can be
// built over (Options.Persistence). persist.Open provides the
// disk-backed implementation.
type Persistence interface {
	DatasetPersistence
	ResultPersistence
	JobJournal
	// PersistStats snapshots the tier for /v1/metrics.
	PersistStats() api.PersistStats
}

var _ Persistence = (*persist.Dir)(nil)
