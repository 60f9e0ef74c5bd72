package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/api"
	"repro/internal/server/persist"
)

// JobState is the lifecycle state of an async mining job.
type JobState = api.JobState

// Job states. Queued and running jobs are live; the other states are
// terminal.
const (
	JobQueued    = api.JobQueued
	JobRunning   = api.JobRunning
	JobDone      = api.JobDone
	JobFailed    = api.JobFailed
	JobCancelled = api.JobCancelled
)

// Job manager submission errors; handlers map them to 503.
var (
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("server: draining, not accepting new jobs")
	// ErrQueueFull rejects submissions when the bounded queue is at
	// capacity.
	ErrQueueFull = errors.New("server: job queue full")
)

// Job is one async mining run. Fields are guarded by the manager's
// lock; Status returns consistent snapshots.
type Job struct {
	id       string
	req      MineRequest
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	result   *MineResponse
	err      error
	cancel   context.CancelFunc // non-nil while running
	userStop bool               // DELETE /jobs/{id} was called
	lost     bool               // failed because a crash interrupted it
	done     chan struct{}      // closed on reaching a terminal state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStatus is the wire form of a job (GET /v1/jobs/{id}).
type JobStatus = api.JobStatus

// JobManager runs submitted mining jobs on a bounded worker pool fed by
// a bounded submission queue. Jobs are cancellable while queued or
// running; Shutdown drains in-flight work under a caller deadline.
// With a JobJournal attached (Recover), every state transition is
// appended to the write-ahead journal — fsynced before the transition
// is acknowledged — so a crashed process's successor can replay it.
type JobManager struct {
	run     func(context.Context, MineRequest) (*MineResponse, error)
	baseCtx context.Context
	queue   chan *Job
	wg      sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	idPrefix string // random per-process prefix: IDs stay unique across a cluster
	nextID   uint64
	closed   bool
	counts   map[JobState]int64 // terminal-state tallies + submissions
	submits  int64
	journal  JobJournal // nil = no durability
	// Replay tallies (merged into the /metrics persist block).
	recovered, lostJobs int64
}

// NewJobManager starts workers goroutines pulling from a queue of
// capacity queueCap. run executes one job under its context; baseCtx
// parents every job context, so cancelling it stops all jobs.
func NewJobManager(baseCtx context.Context, workers, queueCap int, run func(context.Context, MineRequest) (*MineResponse, error)) *JobManager {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	m := &JobManager{
		run:      run,
		baseCtx:  baseCtx,
		queue:    make(chan *Job, queueCap),
		jobs:     make(map[string]*Job),
		idPrefix: newRequestID()[:6],
		counts:   make(map[JobState]int64),
	}
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	return m
}

// Submit enqueues a job and returns it (state queued). It fails with
// ErrDraining after Shutdown began and ErrQueueFull when the bounded
// queue is at capacity.
func (m *JobManager) Submit(req MineRequest) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.nextID++
	j := &Job{
		id:      fmt.Sprintf("j%s-%08d", m.idPrefix, m.nextID),
		req:     req,
		state:   JobQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.submits++
	// Journal before acknowledging: once the caller sees the 202, the
	// submission is on disk (fsynced) and survives a crash.
	m.appendLocked(persist.JobRecord{Type: persist.RecSubmitted, ID: j.id, Time: j.created, Req: &j.req})
	m.mu.Unlock()
	return j, nil
}

// appendLocked writes one journal record; the journal itself counts
// write failures (durability degrades, service stays up). Callers hold
// m.mu, which totally orders records with state transitions.
func (m *JobManager) appendLocked(rec persist.JobRecord) {
	if m.journal == nil {
		return
	}
	_ = m.journal.AppendJob(rec)
}

// Get returns the job with the given ID.
func (m *JobManager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job: a queued job is finished as
// cancelled immediately, a running job has its context cancelled (the
// mining walk observes it mid-DFS and returns promptly). Cancelling a
// job already in a terminal state is a no-op. The second return is
// false when no job has this ID.
func (m *JobManager) Cancel(id string) (JobState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return "", false
	}
	switch j.state {
	case JobQueued:
		j.userStop = true
		m.finishLocked(j, JobCancelled, nil, context.Canceled)
	case JobRunning:
		j.userStop = true
		j.cancel()
	}
	return j.state, true
}

// Status snapshots a job for the wire.
func (m *JobManager) Status(j *Job) JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Dataset:   j.req.Dataset,
		CreatedAt: j.created,
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	st.Lost = j.lost
	return st
}

// JobStats is the manager's /metrics snapshot.
type JobStats = api.JobStats

// Stats snapshots the job counters.
func (m *JobManager) Stats() JobStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := JobStats{
		Submitted: m.submits,
		Done:      m.counts[JobDone],
		Failed:    m.counts[JobFailed],
		Cancelled: m.counts[JobCancelled],
	}
	for _, j := range m.jobs {
		switch j.state {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		}
	}
	return st
}

// Shutdown stops accepting submissions and drains the queue and running
// jobs. When ctx expires first, every live job is cancelled and the
// call waits only for the (prompt, context-aware) cancellations to
// land, returning ctx.Err(). Safe to call more than once.
func (m *JobManager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	// Deadline hit: cancel everything still live. Workers then finish
	// promptly (the miners poll their context mid-DFS) and queued jobs
	// are skipped by the workers as already-terminal.
	m.mu.Lock()
	for _, j := range m.jobs {
		switch j.state {
		case JobQueued:
			m.finishLocked(j, JobCancelled, nil, context.Canceled)
		case JobRunning:
			j.cancel()
		}
	}
	m.mu.Unlock()
	<-drained
	return ctx.Err()
}

// worker pulls jobs off the queue until it is closed and drained.
func (m *JobManager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob executes one job under a cancellable per-job context.
func (m *JobManager) runJob(j *Job) {
	m.mu.Lock()
	if j.state != JobQueued { // cancelled while queued
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	m.appendLocked(persist.JobRecord{Type: persist.RecStarted, ID: j.id, Time: j.started})
	m.mu.Unlock()
	defer cancel()

	res, err := m.run(ctx, j.req)

	m.mu.Lock()
	state := JobDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state = JobCancelled
	default:
		state = JobFailed
	}
	m.finishLocked(j, state, res, err)
	m.mu.Unlock()
}

// finishLocked moves a job to a terminal state. Callers hold m.mu.
func (m *JobManager) finishLocked(j *Job, state JobState, res *MineResponse, err error) {
	j.state = state
	j.finished = time.Now()
	j.result = res
	j.err = err
	j.cancel = nil
	m.counts[state]++
	rec := persist.JobRecord{Type: persist.RecFinished, ID: j.id, Time: j.finished, State: state, Lost: j.lost}
	if state == JobCancelled {
		rec = persist.JobRecord{Type: persist.RecCancelled, ID: j.id, Time: j.finished}
	} else if err != nil {
		rec.Error = err.Error()
	}
	m.appendLocked(rec)
	close(j.done)
}

// RecoveryStats reports the startup journal-replay tallies: jobs
// re-enqueued and jobs marked lost.
func (m *JobManager) RecoveryStats() (recovered, lost int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovered, m.lostJobs
}

// maxTerminalHistory bounds how many terminal jobs a journal
// compaction carries across a restart, so job status survives exactly
// as long as it is useful without the journal growing unboundedly.
const maxTerminalHistory = 1024

// Recover attaches the write-ahead journal and replays it: jobs that
// were submitted but never started are re-enqueued under their
// original IDs; jobs the journal shows in flight when the process died
// are marked failed with a lost: true detail (their partial work is
// unrecoverable, but the ID stays pollable); jobs whose journaled
// request no longer decodes are marked failed with the decode error;
// terminal jobs keep their recorded state (without results — those
// live in the result cache, verified by digest chain). The journal is
// then compacted to exactly the retained records. Call once, before
// serving traffic.
func (m *JobManager) Recover(journal JobJournal) error {
	recs, err := journal.ReplayJobs()
	if err != nil {
		m.mu.Lock()
		m.journal = journal
		m.mu.Unlock()
		return err
	}
	// Fold the append-ordered records by job ID.
	type agg struct{ sub, started, fin *persist.JobRecord }
	byID := make(map[string]*agg, len(recs))
	var order []string
	for i := range recs {
		rec := &recs[i]
		a := byID[rec.ID]
		if a == nil {
			a = &agg{}
			byID[rec.ID] = a
			order = append(order, rec.ID)
		}
		switch rec.Type {
		case persist.RecSubmitted:
			a.sub = rec
		case persist.RecStarted:
			a.started = rec
		case persist.RecFinished:
			a.fin = rec
		case persist.RecCancelled:
			fin := *rec
			fin.Type = persist.RecFinished
			fin.State = JobCancelled
			a.fin = &fin
		}
	}
	var terminal, requeue []*agg
	for _, id := range order {
		a := byID[id]
		if a.sub == nil || a.sub.Req == nil {
			continue // torn or foreign records without a submission
		}
		switch {
		case a.fin != nil:
			terminal = append(terminal, a)
		case a.started != nil:
			// In flight at the crash: synthesise the terminal record the
			// process never got to write.
			a.fin = &persist.JobRecord{
				Type: persist.RecFinished, ID: id, Time: time.Now(),
				State: JobFailed, Error: lostError.Error(), Lost: true,
			}
			terminal = append(terminal, a)
		case a.sub.ReqError != "":
			// Journaled by a build that accepted a request this one
			// rejects: fail just this job, with the reason.
			a.fin = &persist.JobRecord{
				Type: persist.RecFinished, ID: id, Time: time.Now(),
				State: JobFailed, Error: "server: journaled request no longer decodes: " + a.sub.ReqError,
			}
			terminal = append(terminal, a)
		default:
			requeue = append(requeue, a)
		}
	}
	if len(terminal) > maxTerminalHistory {
		terminal = terminal[len(terminal)-maxTerminalHistory:]
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	keep := make([]persist.JobRecord, 0, 3*len(terminal)+len(requeue))
	for _, a := range terminal {
		j := &Job{
			id:       a.sub.ID,
			req:      *a.sub.Req,
			state:    a.fin.State,
			created:  a.sub.Time,
			finished: a.fin.Time,
			lost:     a.fin.Lost,
			done:     closedChan(),
		}
		if a.started != nil {
			j.started = a.started.Time
		}
		if a.fin.Error != "" {
			j.err = errors.New(a.fin.Error)
		} else if a.fin.State == JobCancelled {
			j.err = context.Canceled
		}
		m.jobs[j.id] = j
		m.counts[j.state]++
		if j.lost {
			m.lostJobs++
		}
		keep = append(keep, *a.sub)
		if a.started != nil {
			keep = append(keep, *a.started)
		}
		keep = append(keep, *a.fin)
	}
	// Queued-at-crash jobs re-enter the queue under their original IDs;
	// their submitted records go into the compacted journal (re-pushing
	// is not a new submission).
	var overflow []*Job
	for _, a := range requeue {
		j := &Job{id: a.sub.ID, req: *a.sub.Req, state: JobQueued, created: a.sub.Time, done: make(chan struct{})}
		m.jobs[j.id] = j
		select {
		case m.queue <- j:
			m.submits++
			m.recovered++
			keep = append(keep, *a.sub)
		default:
			// No capacity left for this one: report it lost rather than
			// let it vanish. Its terminal record lands after compaction.
			overflow = append(overflow, j)
		}
	}
	if err := journal.CompactJobs(keep); err != nil {
		// Keep appending to the uncompacted journal: replay stays
		// correct, merely longer.
		err = fmt.Errorf("server: compacting job journal: %w", err)
		m.journal = journal
		for _, j := range overflow {
			j.lost = true
			m.lostJobs++
			m.finishLocked(j, JobFailed, nil, errors.New("server: job queue full during crash recovery"))
		}
		return err
	}
	m.journal = journal
	for _, j := range overflow {
		j.lost = true
		m.lostJobs++
		m.finishLocked(j, JobFailed, nil, errors.New("server: job queue full during crash recovery"))
	}
	return nil
}

// lostError is the error a lost job reports after a crash recovery.
var lostError = errors.New("server: job lost — the server restarted while it was in flight")

// closedChan returns an already-closed done channel for jobs recovered
// directly into a terminal state.
func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}
