package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/transact"
)

// DeltaManager tracks everything the delta pipeline can reuse across
// requests: dataset lineage (which digest was PATCHed into which, and
// the structured change set between them), incremental extraction
// states, and the canonical encodings of PATCH successors. All three
// are small LRU side caches — losing an entry only costs a recompute,
// never correctness. The mining result a successor's mine patches is
// its parent's response in the result cache, so none is kept here.
// Safe for concurrent use.
type DeltaManager struct {
	mu sync.Mutex
	// lineage maps a successor digest to its parent and change set.
	lineage *lru[string, *lineageRecord]
	// states holds incremental extraction states keyed by
	// digest + "|" + canonical extraction options. States are claimed
	// exclusively (get removes the entry) because Apply mutates them.
	states *lru[string, *transact.State]
	// encodings holds PATCH successors' canonical bytes with their
	// feature spans, keyed by digest, so that a PATCH of a successor
	// renders only the features it changes. A successor's encoding
	// replaces its parent's, so a PATCH chain holds one, its tip's.
	encodings *lru[string, *dataset.Encoding]
}

// The retained encodings' caps: a successor's bytes are at most
// Options.MaxUploadBytes (32 MiB by default), and an encoding larger
// than the byte cap is not retained at all.
const (
	maxEncodings     = 16
	maxEncodingBytes = 64 << 20
)

type lineageRecord struct {
	parent string
	cs     *dataset.ChangeSet
}

func newDeltaManager() *DeltaManager {
	return &DeltaManager{
		lineage:   newLRU[string, *lineageRecord](64, 0),
		states:    newLRU[string, *transact.State](8, 0),
		encodings: newLRU[string, *dataset.Encoding](maxEncodings, maxEncodingBytes),
	}
}

// recordLineage remembers that child was derived from parent by cs.
// A no-op mutation batch can reproduce the parent byte-for-byte; such
// self-loops are not recorded.
func (m *DeltaManager) recordLineage(child, parent string, cs *dataset.ChangeSet) {
	if child == parent {
		return
	}
	m.mu.Lock()
	m.lineage.put(child, &lineageRecord{parent: parent, cs: cs}, 0)
	m.mu.Unlock()
}

// parentOf looks up a digest's recorded parent and change set.
func (m *DeltaManager) parentOf(digest string) (string, *dataset.ChangeSet, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.lineage.get(digest)
	if !ok {
		return "", nil, false
	}
	return rec.parent, rec.cs, true
}

// claimState removes and returns the state under key (nil on miss).
// Exclusive claiming keeps concurrent mines from mutating one state.
func (m *DeltaManager) claimState(key string) *transact.State {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.states.get(key)
	if !ok {
		return nil
	}
	m.states.remove(key)
	return st
}

// putState stores (or returns a claimed) state under key.
func (m *DeltaManager) putState(key string, st *transact.State) {
	m.mu.Lock()
	m.states.put(key, st, 0)
	m.mu.Unlock()
}

// encoding returns the retained encoding of digest (nil on miss).
func (m *DeltaManager) encoding(digest string) *dataset.Encoding {
	m.mu.Lock()
	defer m.mu.Unlock()
	enc, _ := m.encodings.get(digest)
	return enc
}

// putEncoding retains enc as the encoding of child, the successor of
// parent, in place of parent's: another PATCH of parent renders in full.
// An encoding larger than the byte cap on its own is not retained.
func (m *DeltaManager) putEncoding(parent, child string, enc *dataset.Encoding) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.encodings.remove(parent)
	if size := int64(cap(enc.Bytes)); size <= maxEncodingBytes {
		m.encodings.put(child, enc, size)
	}
}

// forget drops everything keyed to digest: lineage records where it is
// child or parent, its encoding, and its extraction states (their keys
// are digest-prefixed, mirroring the result cache).
func (m *DeltaManager) forget(digest string) {
	prefix := digest + "|"
	m.mu.Lock()
	defer m.mu.Unlock()
	m.encodings.remove(digest)
	for _, k := range m.lineage.keys() {
		if rec, ok := m.lineage.get(k); ok && (k == digest || rec.parent == digest) {
			m.lineage.remove(k)
		}
	}
	for _, k := range m.states.keys() {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			m.states.remove(k)
		}
	}
}

// deltaEligible reports whether a cached mining result for cfg can be
// patched forward by a row delta. Post-filters truncate the frequent
// set (making additive correction unsound) and rule generation depends
// on it, so both force the cold path. Extraction-state reuse is
// unaffected by either.
func deltaEligible(cfg core.Config) bool {
	return cfg.PostFilter == core.NoPostFilter && !cfg.GenerateRules
}

// computeScene is the scene branch of a cache-miss mine: it reuses (or
// builds) the incremental extraction state for the dataset, and when
// the dataset is a recorded PATCH successor it re-extracts only the
// dirty region and patches the parent's cached response instead of
// mining from scratch. Falls back to a full extraction and mine
// whenever any reusable piece is missing — the response is identical
// either way.
func (s *Server) computeScene(ctx context.Context, ds *StoredDataset, cfg core.Config) (*MineResponse, error) {
	opts := cfg.ExtractionOptions()
	optsJSON, err := json.Marshal(opts)
	if err != nil {
		// Unreachable for a config decoded from the wire, which holds
		// only JSON-representable options.
		return nil, fmt.Errorf("server: canonicalising extraction options: %w", err)
	}
	suffix := "|" + string(optsJSON)
	tr := obs.FromContext(ctx)

	var st *transact.State
	var td *transact.TableDelta
	var parent string
	if st = s.deltas.claimState(ds.Digest + suffix); st != nil {
		tr.Add("delta.state.reused", 1)
	} else if p, cs, ok := s.deltas.parentOf(ds.Digest); ok {
		if pst := s.deltas.claimState(p + suffix); pst != nil {
			sp := tr.Stage("extract.delta")
			d, err := pst.Apply(ctx, ds.Scene, cs)
			sp.End()
			if err == nil {
				st, td, parent = pst, d, p
			} else {
				tr.Add("delta.apply.errors", 1)
			}
		}
	}
	if st == nil {
		sp := tr.Stage("extract")
		st, err = transact.NewStateContext(ctx, ds.Scene, opts)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: extraction: %w", err)
		}
	}
	// The state now represents this digest; park it for the next mine or
	// PATCH successor regardless of how mining below goes.
	defer s.deltas.putState(ds.Digest+suffix, st)

	if td != nil && deltaEligible(cfg) {
		if pkey, err := CacheKey(parent, cfg); err == nil {
			if prev := s.cache.peek(pkey); prev != nil {
				if resp, err := patchMine(ctx, ds.Digest, st, prev, td, cfg); err == nil {
					return resp, nil
				}
				tr.Add("delta.patch.errors", 1)
			}
		}
	}

	out, err := core.RunStateContext(ctx, st, cfg)
	if err != nil {
		return nil, err
	}
	return buildResponse(ds.Digest, out, cfg), nil
}

// patchMine mines the successor state st by patching prev, its
// parent's response to the same config, forward by the table delta td.
// The successor's database is built as a cold mine builds it, and prev's
// itemsets and td's rows are translated into its IDs by name. An
// itemset that names an item the successor's dictionary lacks is
// dropped, because no successor row holds that item; such names are
// dropped from old rows, because no kept itemset holds them. The pair
// filters decide from item names alone (KC+ from each item's feature
// type, Φ from the pairs' names), so the patch is exact in this
// dictionary, and buildResponse renders it as it renders a cold mine.
func patchMine(ctx context.Context, digest string, st *transact.State, prev *MineResponse, td *transact.TableDelta, cfg core.Config) (*MineResponse, error) {
	tr := obs.FromContext(ctx)
	mcfg, err := core.EffectiveMiningConfig(cfg)
	if err != nil {
		return nil, err
	}
	sp := tr.Stage("intern")
	db := itemset.NewDBIndexed(st.Rows())
	sp.End()
	parent := &mining.Result{
		MinSupportCount: prev.MinSupportCount,
		Frequent:        make([]mining.FrequentItemset, 0, len(prev.Frequent)),
	}
	for _, f := range prev.Frequent {
		if items, ok := db.Dict.LookupAll(f.Items); ok {
			parent.Frequent = append(parent.Frequent, mining.FrequentItemset{Items: items, Support: f.Support})
		}
	}
	row := func(names []string) itemset.Itemset {
		items, _ := db.Dict.LookupAll(names)
		return items
	}
	deltas := make([]mining.RowDelta, 0, len(td.Changed)+len(td.Deleted))
	for _, c := range td.Changed {
		deltas = append(deltas, mining.RowDelta{Old: row(c.Old), New: row(c.New)})
	}
	for _, del := range td.Deleted {
		deltas = append(deltas, mining.RowDelta{Old: row(del.Old)})
	}

	sp = tr.Stage("mine.delta")
	res, _, err := mining.PatchResultContext(ctx, db, parent, mcfg, deltas)
	sp.End()
	if err != nil {
		return nil, err
	}
	tr.Add("delta.mine.patched", 1)
	return buildResponse(digest, &core.Outcome{DB: db, Result: res}, cfg), nil
}
