package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/api"
)

// Job journal record types. The journal grammar is one JSON object per
// line:
//
//	submitted: {"t":"submitted","id":ID,"time":RFC3339,"req":MineRequest}
//	started:   {"t":"started","id":ID,"time":RFC3339}
//	finished:  {"t":"finished","id":ID,"time":RFC3339,
//	            "state":"done"|"failed","error":STR?,"lost":BOOL?}
//	cancelled: {"t":"cancelled","id":ID,"time":RFC3339}
//
// Records are append-only and fsynced per append; replay folds them by
// ID, last state winning. A half-written trailing record (torn by a
// crash) is tolerated: replay stops at the first line that is not valid
// JSON and the next compaction truncates it away. A well-formed line is
// never a torn tail, so it never stops replay (see decodeJobRecord).
const (
	RecSubmitted = "submitted"
	RecStarted   = "started"
	RecFinished  = "finished"
	RecCancelled = "cancelled"
)

// JobRecord is one journal line.
type JobRecord struct {
	Type  string           `json:"t"`
	ID    string           `json:"id"`
	Time  time.Time        `json:"time"`
	Req   *api.MineRequest `json:"req,omitempty"`
	State api.JobState     `json:"state,omitempty"`
	Error string           `json:"error,omitempty"`
	Lost  bool             `json:"lost,omitempty"`
	// ReqError is set by replay on a submitted record whose request no
	// longer decodes (Req then holds only the dataset digest); recovery
	// fails that job with it. It is never written to the journal.
	ReqError string `json:"-"`
}

// maxWALLine bounds one journal record (a submitted record embeds the
// full mining request, which is itself bounded by the upload cap).
const maxWALLine = 4 << 20

// AppendJob appends one record to the journal and fsyncs it, so an
// acknowledged state transition survives a crash immediately after.
func (d *Dir) AppendJob(rec JobRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		d.saveErrors.Add(1)
		return fmt.Errorf("persist: encoding journal record: %w", err)
	}
	line = append(line, '\n')
	d.walMu.Lock()
	defer d.walMu.Unlock()
	if d.wal == nil {
		d.saveErrors.Add(1)
		return fmt.Errorf("persist: journal is closed")
	}
	if _, err := d.wal.Write(line); err != nil {
		d.saveErrors.Add(1)
		return fmt.Errorf("persist: appending journal record: %w", err)
	}
	if err := d.wal.Sync(); err != nil {
		d.saveErrors.Add(1)
		return fmt.Errorf("persist: syncing journal: %w", err)
	}
	d.walRecords.Add(1)
	return nil
}

// ReplayJobs reads the journal back in append order. Replay stops at
// the first line that is not valid JSON — a torn tail write from a
// crash — and reports what was readable up to that point; the torn
// tail is counted and dropped by the next CompactJobs.
func (d *Dir) ReplayJobs() ([]JobRecord, error) {
	f, err := os.Open(filepath.Join(d.root, "jobs.wal"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("persist: opening journal for replay: %w", err)
	}
	defer f.Close()
	var recs []JobRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxWALLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !json.Valid(line) {
			d.walTruncated.Add(1)
			break
		}
		if rec, ok := decodeJobRecord(line); ok {
			recs = append(recs, rec)
		}
	}
	if err := sc.Err(); err != nil && len(recs) == 0 {
		return nil, fmt.Errorf("persist: reading journal: %w", err)
	}
	return recs, nil
}

// decodeJobRecord decodes one well-formed journal line, reporting false
// for JSON that is not a job record at all (no type or ID to fold it
// under). A submitted record whose request no longer decodes — written
// by a build that accepted an algorithm or field this one rejects —
// still decodes: its Req becomes a placeholder carrying the dataset
// digest and ReqError the decode error, so recovery fails that one job
// instead of losing every record after it.
func decodeJobRecord(line []byte) (JobRecord, bool) {
	var raw struct {
		JobRecord
		Req json.RawMessage `json:"req,omitempty"`
	}
	if err := json.Unmarshal(line, &raw); err != nil || raw.Type == "" || raw.ID == "" {
		return JobRecord{}, false
	}
	rec := raw.JobRecord
	if len(raw.Req) == 0 || bytes.Equal(raw.Req, []byte("null")) {
		return rec, true
	}
	var req api.MineRequest
	if err := json.Unmarshal(raw.Req, &req); err != nil {
		var digest struct {
			Dataset string `json:"dataset"`
		}
		_ = json.Unmarshal(raw.Req, &digest) // best effort: the digest only labels the failed job
		req = api.MineRequest{Dataset: digest.Dataset}
		rec.ReqError = err.Error()
	}
	rec.Req = &req
	return rec, true
}

// CompactJobs atomically replaces the journal with the given records
// (the live set a replay distilled), dropping history — including any
// torn tail — and re-opens the append handle on the new file. A stale
// handle held by a previous process generation keeps writing to the
// unlinked old inode, harmlessly.
func (d *Dir) CompactJobs(recs []JobRecord) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("persist: encoding compacted journal: %w", err)
		}
	}
	path := filepath.Join(d.root, "jobs.wal")
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return fmt.Errorf("persist: compacting journal: %w", err)
	}
	wal, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: reopening compacted journal: %w", err)
	}
	d.walMu.Lock()
	if d.wal != nil {
		d.wal.Close()
	}
	d.wal = wal
	d.walMu.Unlock()
	return nil
}
