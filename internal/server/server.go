// Package server implements qsrmined: the HTTP/JSON mining service over
// the qsrmine pipeline. It offers content-addressed dataset uploads
// (WKT-JSON scenes, transaction-table CSVs) held in an LRU-capped
// in-memory store, synchronous mining with single-flight coalescing, an
// async job manager with a bounded worker pool and cancellation wired to
// context cancellation mid-DFS, a result cache keyed by (dataset digest,
// canonical config), and health/metrics endpoints snapshotting the obs
// collector. A separate Proxy type turns
// a node started with peers into a front router that consistent-hashes
// requests across a cluster by dataset digest.
//
// Endpoints (all under /v1; any other path answers 404 not_found):
//
//	POST   /v1/datasets/scene    upload a WKT-JSON scene      -> {digest,...}
//	POST   /v1/datasets/table    upload a transaction CSV     -> {digest,...}
//	GET    /v1/datasets          list stored datasets
//	GET    /v1/datasets/{digest} dataset metadata
//	PATCH  /v1/datasets/{digest} mutate a scene               -> successor digest
//	DELETE /v1/datasets/{digest} delete + invalidate results
//	POST   /v1/mine              mine synchronously           -> MineResponse
//	POST   /v1/colocate          co-location synchronously    -> MineResponse
//	POST   /v1/jobs              submit an async mining job   -> JobStatus (202)
//	POST   /v1/colocate/jobs     submit an async co-location  -> JobStatus (202)
//	GET    /v1/jobs/{id}         poll job status/result
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/healthz           liveness + version
//	GET    /v1/metrics           obs snapshot + store/cache/job stats
//
// Errors are the uniform JSON envelope
// {"error":{"code","message","requestId"}} with machine-readable codes
// (repro/api.ErrorCode); every response carries an X-Request-ID.
package server

import (
	"context"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options configures a Server. The zero value is usable; every field
// has a sensible default.
type Options struct {
	// Workers is the job pool size (default GOMAXPROCS).
	Workers int
	// QueueCap bounds the async submission queue (default 64).
	QueueCap int
	// StoreMaxEntries / StoreMaxBytes cap the dataset store
	// (defaults 64 entries, 256 MiB).
	StoreMaxEntries int
	StoreMaxBytes   int64
	// CacheMaxEntries caps the result cache (default 256).
	CacheMaxEntries int
	// MaxUploadBytes bounds one upload or request body (default 32 MiB).
	MaxUploadBytes int64
	// DefaultTimeout bounds a mining run when the request does not
	// (default 60s).
	DefaultTimeout time.Duration
	// EventLimit bounds the obs event ring (default 4096).
	EventLimit int
	// AccessLog, when non-nil, receives one line per HTTP request
	// (time, method, path, status, duration, request ID).
	AccessLog io.Writer
	// Persistence, when non-nil, is the durable tier behind the dataset
	// store, the result cache, and the job manager (cmd/qsrmined wires a
	// persist.Dir here for -data-dir). Nil keeps the historical
	// memory-only behaviour, byte-identical.
	Persistence Persistence
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.StoreMaxEntries <= 0 {
		o.StoreMaxEntries = 64
	}
	if o.StoreMaxBytes <= 0 {
		o.StoreMaxBytes = 256 << 20
	}
	if o.CacheMaxEntries <= 0 {
		o.CacheMaxEntries = 256
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 32 << 20
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.EventLimit <= 0 {
		o.EventLimit = 4096
	}
	return o
}

// Server is the qsrmined service state. Create with New, expose with
// Handler, stop with Shutdown.
type Server struct {
	opts      Options
	store     *Store
	cache     *ResultCache
	deltas    *DeltaManager
	persist   Persistence // nil = memory-only
	jobs      *JobManager
	flights   *flightGroup
	trace     *obs.Trace
	collector *obs.Collector
	mux       *http.ServeMux
	started   time.Time
	draining  atomic.Bool
	baseCtx   context.Context
	stopBase  context.CancelFunc
	logmu     sync.Mutex

	// mineHook is a test seam invoked (when non-nil) before a cache-miss
	// mine runs; returning an error aborts the run with it.
	mineHook func(context.Context) error
}

// New assembles a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	collector := obs.NewRingCollector(opts.EventLimit)
	s := &Server{
		opts:      opts,
		store:     NewStore(opts.StoreMaxEntries, opts.StoreMaxBytes),
		cache:     NewResultCache(opts.CacheMaxEntries),
		deltas:    newDeltaManager(),
		persist:   opts.Persistence,
		trace:     obs.New(collector),
		collector: collector,
		started:   time.Now(),
	}
	if s.persist != nil {
		s.store.Persist(s.persist)
		s.cache.Persist(s.persist, s.trace)
	}
	// Capacity eviction must not leak derived state: a digest the LRU
	// pushed out invalidates its cached results and delta-pipeline
	// artefacts, exactly like an explicit DELETE (the durable tier, when
	// present, is untouched — its entries are re-verified on load).
	s.store.OnEvict(func(digests []string) {
		for _, digest := range digests {
			if n := s.cache.InvalidateDataset(digest); n > 0 {
				s.trace.Add("server.cache.invalidated", int64(n))
			}
			s.deltas.forget(digest)
		}
	})
	s.flights = newFlightGroup(s.trace)
	s.baseCtx, s.stopBase = context.WithCancel(context.Background())
	s.jobs = NewJobManager(s.baseCtx, opts.Workers, opts.QueueCap, s.runJob)
	if s.persist != nil {
		// Replay the write-ahead journal: never-started jobs re-enter the
		// queue, in-flight ones are reported lost. Replay errors degrade
		// durability, never startup.
		if err := s.jobs.Recover(s.persist); err != nil {
			s.trace.Add("server.persist.recover_errors", 1)
		}
		recovered, lost := s.jobs.RecoveryStats()
		s.trace.Add("server.persist.jobs_recovered", recovered)
		s.trace.Add("server.persist.jobs_lost", lost)
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the service's HTTP handler: the endpoint mux wrapped
// in the request-ID / access-log middleware.
func (s *Server) Handler() http.Handler {
	return requestMiddleware(s.mux, s.trace, s.opts.AccessLog, &s.logmu)
}

// runJob executes one async job under the request (or default) timeout.
func (s *Server) runJob(ctx context.Context, req MineRequest) (*MineResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, s.timeout(req))
	defer cancel()
	return s.mine(ctx, req)
}

// timeout resolves a request's mining deadline. A timeoutMillis past
// what a time.Duration holds means the longest one, not a wrapped
// negative deadline that has already passed.
func (s *Server) timeout(req MineRequest) time.Duration {
	if req.TimeoutMillis > 0 {
		return time.Duration(min(req.TimeoutMillis, int64(math.MaxInt64/time.Millisecond))) * time.Millisecond
	}
	return s.opts.DefaultTimeout
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown gracefully stops the service: new submissions (and uploads
// and synchronous mining) are rejected with 503 immediately, queued and
// running jobs are drained, and when ctx expires first the remaining
// jobs are cancelled through their contexts — the mining engines
// observe cancellation mid-DFS, so even that path returns promptly.
// Cancelling the base context also unwinds any detached single-flight
// computations. The HTTP listener itself is owned by the caller
// (cmd/qsrmined closes it around this call). Safe to call more than
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.jobs.Shutdown(ctx)
	s.stopBase()
	return err
}
