package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/api"
	"repro/internal/dataset"
)

// DatasetKind discriminates the two upload formats.
type DatasetKind = api.DatasetKind

// Dataset kinds.
const (
	// KindScene is a WKT-JSON geographic scene (mined via extraction).
	KindScene = api.KindScene
	// KindTable is a transaction-table CSV (mined directly).
	KindTable = api.KindTable
)

// StoredDataset is one uploaded dataset, content-addressed by the
// SHA-256 digest of the uploaded bytes. Exactly one of Scene/Table is
// non-nil, matching Kind. The parsed value is immutable once stored.
type StoredDataset struct {
	// Digest is the lowercase hex SHA-256 of the upload body.
	Digest string
	// Kind says which field below is populated.
	Kind DatasetKind
	// Scene is the parsed geographic dataset (KindScene).
	Scene *dataset.Dataset
	// Table is the parsed transaction table (KindTable).
	Table *dataset.Table
	// Bytes is the size of the uploaded body (the LRU accounting unit).
	Bytes int64
	// Rows counts reference features (scene) or transactions (table).
	Rows int
}

// Digest returns the content address of an upload body.
func Digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// Store holds uploaded datasets in memory, content-addressed, with LRU
// eviction under an entry cap and a byte cap. Re-uploading identical
// bytes is idempotent and refreshes recency. With a DatasetPersistence
// attached, uploads write through to disk and a memory miss lazily
// re-parses the persisted bytes, so the LRU becomes a cache over a
// durable tier instead of the only copy. Safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	lru       *lru[string, *StoredDataset]
	evictions int64
	persist   DatasetPersistence     // nil = memory-only
	onEvict   func(digests []string) // called outside mu with LRU-evicted digests
}

// NewStore returns a Store with the given caps (0 = unlimited).
func NewStore(maxEntries int, maxBytes int64) *Store {
	return &Store{lru: newLRU[string, *StoredDataset](maxEntries, maxBytes)}
}

// Persist attaches the durable tier. Set before serving traffic.
func (s *Store) Persist(p DatasetPersistence) { s.persist = p }

// OnEvict registers a callback receiving the digests the LRU evicted
// (capacity pressure only — Delete is the caller's own act). The
// server wires it to result-cache and delta-manager invalidation so an
// evicted dataset cannot pin derived state. Set before serving
// traffic; the callback runs without the store lock held.
func (s *Store) OnEvict(fn func(digests []string)) { s.onEvict = fn }

// parseUpload parses an upload body of the given kind into the entry
// stored under digest: a scene must decode as one document and
// validate, a table must hold a transaction. The upload handler and
// reload share it, so a persisted body is re-admitted by the rules that
// admitted it.
func parseUpload(digest string, kind DatasetKind, body []byte) (*StoredDataset, error) {
	sd := &StoredDataset{Digest: digest, Kind: kind, Bytes: int64(len(body))}
	switch kind {
	case KindScene:
		d, err := dataset.ReadJSON(bytes.NewReader(body))
		if err == nil {
			err = d.Validate()
		}
		if err != nil {
			return nil, err
		}
		sd.Scene, sd.Rows = d, d.Reference.Len()
	case KindTable:
		t, err := dataset.ReadTableCSV(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if t.Len() == 0 {
			return nil, errors.New("table has no transactions")
		}
		sd.Table, sd.Rows = t, t.Len()
	default:
		return nil, fmt.Errorf("server: dataset %s has unknown kind %q", digest, kind)
	}
	return sd, nil
}

// PutScene stores a parsed scene (a PATCH successor) under the digest of
// its body.
func (s *Store) PutScene(body []byte, d *dataset.Dataset) (*StoredDataset, error) {
	return s.put(body, &StoredDataset{
		Digest: Digest(body),
		Kind:   KindScene,
		Scene:  d,
		Bytes:  int64(len(body)),
		Rows:   d.Reference.Len(),
	})
}

// put stores sd, parsed from body.
func (s *Store) put(body []byte, sd *StoredDataset) (*StoredDataset, error) {
	if s.persist != nil {
		// Write-through before the memory insert: an acknowledged upload
		// is on disk, or the client hears about the failure.
		if err := s.persist.SaveDataset(sd.Digest, body, sd.Kind, sd.Rows); err != nil {
			return nil, err
		}
	}
	s.insert(sd)
	return sd, nil
}

// insert places sd in the LRU and dispatches eviction notifications.
func (s *Store) insert(sd *StoredDataset) {
	s.mu.Lock()
	evicted := s.lru.put(sd.Digest, sd, sd.Bytes)
	s.evictions += int64(len(evicted))
	s.mu.Unlock()
	if len(evicted) > 0 && s.onEvict != nil {
		s.onEvict(evicted)
	}
}

// Get returns the dataset stored under digest, refreshing its recency.
// On a memory miss with a durable tier attached, the persisted bytes
// are re-parsed and re-admitted to the LRU, so datasets survive both
// restarts and capacity evictions.
func (s *Store) Get(digest string) (*StoredDataset, bool) {
	s.mu.Lock()
	if sd, ok := s.lru.get(digest); ok {
		s.mu.Unlock()
		return sd, true
	}
	s.mu.Unlock()
	if s.persist == nil {
		return nil, false
	}
	sd, err := s.reload(digest)
	if err != nil {
		return nil, false
	}
	s.insert(sd)
	return sd, true
}

// reload re-parses a persisted upload body with parseUpload (outside
// the store lock — parsing a large scene must not stall unrelated
// requests).
func (s *Store) reload(digest string) (*StoredDataset, error) {
	body, kind, _, err := s.persist.LoadDataset(digest)
	if err != nil {
		return nil, err
	}
	return parseUpload(digest, kind, body)
}

// List snapshots every stored dataset's metadata, ordered by digest so
// the listing is deterministic (and mergeable across cluster nodes).
// Listing does not touch recency, and with a durable tier it includes
// datasets currently evicted from memory (metadata from the sidecar,
// no re-parse).
func (s *Store) List() []*StoredDataset {
	s.mu.Lock()
	keys := s.lru.keys()
	out := make([]*StoredDataset, 0, len(keys))
	for _, k := range keys {
		if sd, ok := s.lru.peek(k); ok {
			out = append(out, sd)
		}
	}
	s.mu.Unlock()
	if s.persist != nil {
		inMemory := make(map[string]bool, len(out))
		for _, sd := range out {
			inMemory[sd.Digest] = true
		}
		for _, info := range s.persist.ListDatasets() {
			if !inMemory[info.Digest] {
				out = append(out, &StoredDataset{Digest: info.Digest, Kind: info.Kind, Rows: info.Rows, Bytes: info.Bytes})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// Delete removes the dataset stored under digest — from memory and the
// durable tier — reporting whether it was present in either. Callers
// are responsible for invalidating any results derived from it.
func (s *Store) Delete(digest string) bool {
	s.mu.Lock()
	ok := s.lru.remove(digest)
	s.mu.Unlock()
	if s.persist != nil && s.persist.DeleteDataset(digest) {
		ok = true
	}
	return ok
}

// StoreStats is the store's /metrics snapshot.
type StoreStats = api.StoreStats

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Entries: s.lru.len(), Bytes: s.lru.size(), Evictions: s.evictions}
}
