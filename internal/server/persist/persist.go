// Package persist is the disk-backed persistence tier of qsrmined. A
// Dir owns one data directory and provides the three durability
// facets the server plugs in behind its in-memory owners:
//
//   - content-addressed dataset files (the original upload bytes plus a
//     small kind/rows sidecar, lazily re-parsed on first access after a
//     restart),
//   - a write-ahead job journal (jobs.wal, append-only JSON records
//     fsynced on every state transition, replayed on startup), and
//   - persisted result-cache entries stamped with a digest chain
//     {dataset, config, result} that is verified on load — a corrupt or
//     mismatched entry is discarded and recomputed, never served.
//
// Layout under the root directory:
//
//	datasets/<digest>            raw upload body (content address = SHA-256)
//	datasets/<digest>.meta.json  {"kind":"scene","rows":42}
//	results/<digest>-<keyhash>.json
//	                             {"chain":{...},"response":{...}}
//	jobs.wal                     one JSON record per line
//
// Every artifact is a pure function of (dataset digest, canonical
// config), so persistence is plain files plus the journal: writes are
// atomic (temp file + rename), re-writes of identical content are
// idempotent, and nothing in this package interprets mining semantics.
package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/api"
)

// ErrVerifyFailed reports that a persisted entry existed but failed
// digest-chain (or content-address) verification. The offending file
// has already been discarded; the caller recomputes.
var ErrVerifyFailed = errors.New("persist: digest verification failed")

// Dir is a disk-backed persistence root. Safe for concurrent use; the
// write-ahead journal is the only serialised resource.
type Dir struct {
	root string

	walMu sync.Mutex
	wal   *os.File

	// Counters for the /metrics persist block.
	walRecords     atomic.Int64
	walTruncated   atomic.Int64
	datasetReloads atomic.Int64
	resultHits     atomic.Int64
	verifyFailures atomic.Int64
	saveErrors     atomic.Int64
}

// Open prepares root as a persistence directory (creating it and its
// sub-directories as needed) and opens the job journal for appending.
func Open(root string) (*Dir, error) {
	for _, sub := range []string{"", "datasets", "results"} {
		if err := os.MkdirAll(filepath.Join(root, sub), 0o755); err != nil {
			return nil, fmt.Errorf("persist: preparing %s: %w", root, err)
		}
	}
	wal, err := os.OpenFile(filepath.Join(root, "jobs.wal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening job journal: %w", err)
	}
	return &Dir{root: root, wal: wal}, nil
}

// Root returns the directory this Dir persists into.
func (d *Dir) Root() string { return d.root }

// Close releases the journal handle. Appends after Close fail.
func (d *Dir) Close() error {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	if d.wal == nil {
		return nil
	}
	err := d.wal.Close()
	d.wal = nil
	return err
}

// hashHex is the digest primitive of the chain: lowercase hex SHA-256.
func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// validDigest guards path construction: content addresses are exactly
// 64 lowercase hex characters, never path fragments.
func validDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// writeFileAtomic writes data to path via a temp file + rename, so a
// crash mid-write never leaves a half-written artifact under its final
// name.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// datasetMeta is the kind/rows sidecar next to a dataset body. Bytes is
// recoverable from the body file's size and deliberately not stored.
type datasetMeta struct {
	Kind api.DatasetKind `json:"kind"`
	Rows int             `json:"rows"`
}

func (d *Dir) datasetPath(digest string) string {
	return filepath.Join(d.root, "datasets", digest)
}

// SaveDataset persists an upload body and its kind/rows sidecar under
// its content address. Saving an already-present digest is a cheap
// no-op (identical bytes by construction).
func (d *Dir) SaveDataset(digest string, body []byte, kind api.DatasetKind, rows int) error {
	if !validDigest(digest) {
		return fmt.Errorf("persist: invalid dataset digest %q", digest)
	}
	path := d.datasetPath(digest)
	if _, err := os.Stat(path + ".meta.json"); err == nil {
		if _, err := os.Stat(path); err == nil {
			return nil
		}
	}
	if err := writeFileAtomic(path, body); err != nil {
		d.saveErrors.Add(1)
		return fmt.Errorf("persist: writing dataset body: %w", err)
	}
	meta, err := json.Marshal(datasetMeta{Kind: kind, Rows: rows})
	if err != nil {
		d.saveErrors.Add(1)
		return fmt.Errorf("persist: encoding dataset sidecar: %w", err)
	}
	if err := writeFileAtomic(path+".meta.json", meta); err != nil {
		d.saveErrors.Add(1)
		return fmt.Errorf("persist: writing dataset sidecar: %w", err)
	}
	return nil
}

// LoadDataset reads a persisted upload back, re-verifying that the
// body still hashes to its content address. A body that no longer
// matches (bit rot, tampering) or whose sidecar does not decode is
// discarded as DiscardDataset discards it and reports ErrVerifyFailed;
// a digest never saved reports fs.ErrNotExist.
func (d *Dir) LoadDataset(digest string) (body []byte, kind api.DatasetKind, rows int, err error) {
	if !validDigest(digest) {
		return nil, "", 0, fs.ErrNotExist
	}
	path := d.datasetPath(digest)
	body, err = os.ReadFile(path)
	if err != nil {
		return nil, "", 0, err
	}
	if hashHex(body) != digest {
		d.DiscardDataset(digest)
		return nil, "", 0, ErrVerifyFailed
	}
	metaRaw, err := os.ReadFile(path + ".meta.json")
	if err != nil {
		return nil, "", 0, err
	}
	var meta datasetMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		d.DiscardDataset(digest)
		return nil, "", 0, ErrVerifyFailed
	}
	d.datasetReloads.Add(1)
	return body, meta.Kind, meta.Rows, nil
}

// DeleteDataset removes a persisted dataset, reporting whether it was
// present.
func (d *Dir) DeleteDataset(digest string) bool {
	if !validDigest(digest) {
		return false
	}
	path := d.datasetPath(digest)
	err := os.Remove(path)
	os.Remove(path + ".meta.json")
	return err == nil
}

// DiscardDataset removes a persisted dataset that hashed to its address
// but failed a later check, such as a body the caller can no longer
// parse, and counts it as a verification failure, as LoadDataset counts
// a body that fails its hash. The results persisted from the dataset go
// with it: no request can name them once the dataset is gone.
func (d *Dir) DiscardDataset(digest string) {
	if d.DeleteDataset(digest) {
		d.verifyFailures.Add(1)
	}
	d.DeleteResults(digest)
}

// ListDatasets enumerates the persisted datasets' metadata, ordered by
// digest. Bodies are not read (rows come from the sidecar, bytes from
// the file size).
func (d *Dir) ListDatasets() []api.DatasetInfo {
	entries, err := os.ReadDir(filepath.Join(d.root, "datasets"))
	if err != nil {
		return nil
	}
	var out []api.DatasetInfo
	for _, e := range entries {
		digest := e.Name()
		if !validDigest(digest) {
			continue // sidecars, temp files
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		metaRaw, err := os.ReadFile(d.datasetPath(digest) + ".meta.json")
		if err != nil {
			continue // body without sidecar: half-saved, skip
		}
		var meta datasetMeta
		if err := json.Unmarshal(metaRaw, &meta); err != nil {
			continue
		}
		out = append(out, api.DatasetInfo{Digest: digest, Kind: meta.Kind, Rows: meta.Rows, Bytes: fi.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// discard removes files that failed verification and counts the event.
func (d *Dir) discard(what string, paths ...string) {
	for _, p := range paths {
		os.Remove(p)
	}
	d.verifyFailures.Add(1)
}

// resultChain is the verification stamp on a persisted result: SHA-256
// over the dataset's content address, the canonical config JSON, and
// the canonical response JSON. On load all three links are recomputed
// from the requested cache key and the stored response and must match.
type resultChain struct {
	Dataset string `json:"dataset"`
	Config  string `json:"config"`
	Result  string `json:"result"`
}

// resultFile is the on-disk form of one result-cache entry.
type resultFile struct {
	Chain    resultChain       `json:"chain"`
	Response *api.MineResponse `json:"response"`
}

// splitKey takes a result-cache key ("digest|canonical-config-json")
// apart.
func splitKey(key string) (digest, cfg string, ok bool) {
	i := strings.IndexByte(key, '|')
	if i < 0 || !validDigest(key[:i]) {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}

func (d *Dir) resultPath(digest, key string) string {
	return filepath.Join(d.root, "results", digest+"-"+hashHex([]byte(key))+".json")
}

// canonicalResponse is the byte form the result link of the chain is
// computed over: the response with the transport-only Cached flag
// cleared, in the struct's fixed field order.
func canonicalResponse(resp *api.MineResponse) ([]byte, error) {
	cp := *resp
	cp.Cached = false
	return json.Marshal(&cp)
}

// SaveResult persists a mining response under its cache key, stamped
// with the digest chain.
func (d *Dir) SaveResult(key string, resp *api.MineResponse) error {
	digest, cfg, ok := splitKey(key)
	if !ok {
		d.saveErrors.Add(1)
		return fmt.Errorf("persist: malformed cache key %q", key)
	}
	resJSON, err := canonicalResponse(resp)
	if err != nil {
		d.saveErrors.Add(1)
		return fmt.Errorf("persist: encoding result: %w", err)
	}
	doc, err := json.Marshal(resultFile{
		Chain: resultChain{
			Dataset: digest,
			Config:  hashHex([]byte(cfg)),
			Result:  hashHex(resJSON),
		},
		Response: resp,
	})
	if err != nil {
		d.saveErrors.Add(1)
		return fmt.Errorf("persist: encoding result file: %w", err)
	}
	if err := writeFileAtomic(d.resultPath(digest, key), doc); err != nil {
		d.saveErrors.Add(1)
		return fmt.Errorf("persist: writing result: %w", err)
	}
	return nil
}

// LoadResult reads the persisted response for a cache key, verifying
// its digest chain link by link. A missing entry reports fs.ErrNotExist;
// an entry that fails verification is deleted and reports
// ErrVerifyFailed so the caller recomputes.
func (d *Dir) LoadResult(key string) (*api.MineResponse, error) {
	digest, cfg, ok := splitKey(key)
	if !ok {
		return nil, fs.ErrNotExist
	}
	path := d.resultPath(digest, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(raw, &file); err != nil || file.Response == nil {
		d.discard(digest, path)
		return nil, ErrVerifyFailed
	}
	resJSON, err := canonicalResponse(file.Response)
	if err != nil {
		d.discard(digest, path)
		return nil, ErrVerifyFailed
	}
	want := resultChain{Dataset: digest, Config: hashHex([]byte(cfg)), Result: hashHex(resJSON)}
	if file.Chain != want {
		d.discard(digest, path)
		return nil, ErrVerifyFailed
	}
	d.resultHits.Add(1)
	file.Response.Cached = false // transport flag; the cache re-marks copies
	return file.Response, nil
}

// DeleteResults removes every persisted result computed from digest
// (file names are digest-prefixed, mirroring the in-memory prefix
// scan) and returns the number removed.
func (d *Dir) DeleteResults(digest string) int {
	if !validDigest(digest) {
		return 0
	}
	entries, err := os.ReadDir(filepath.Join(d.root, "results"))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), digest+"-") {
			if os.Remove(filepath.Join(d.root, "results", e.Name())) == nil {
				n++
			}
		}
	}
	return n
}

// PersistStats snapshots the persistence tier for /metrics.
func (d *Dir) PersistStats() api.PersistStats {
	st := api.PersistStats{
		Enabled:        true,
		WALRecords:     d.walRecords.Load(),
		WALTruncated:   d.walTruncated.Load(),
		DatasetReloads: d.datasetReloads.Load(),
		ResultHits:     d.resultHits.Load(),
		VerifyFailures: d.verifyFailures.Load(),
		SaveErrors:     d.saveErrors.Load(),
	}
	if entries, err := os.ReadDir(filepath.Join(d.root, "datasets")); err == nil {
		for _, e := range entries {
			if validDigest(e.Name()) {
				st.Datasets++
			}
		}
	}
	if entries, err := os.ReadDir(filepath.Join(d.root, "results")); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".json") {
				st.Results++
			}
		}
	}
	return st
}
