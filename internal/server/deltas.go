package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
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
// states, the (database, result) pairs behind cached mining responses,
// and the canonical encodings of PATCH successors. All four are small
// LRU side caches — losing an entry only costs a recompute, never
// correctness. Safe for concurrent use.
type DeltaManager struct {
	mu sync.Mutex
	// lineage maps a successor digest to its parent and change set.
	lineage *lru[string, *lineageRecord]
	// states holds incremental extraction states keyed by
	// digest + "|" + canonical extraction options. States are claimed
	// exclusively (get removes the entry) because Apply mutates them.
	states *lru[string, *transact.State]
	// mines holds the mining database and raw result behind a cached
	// response, keyed by the full result-cache key. Claimed exclusively
	// for the same reason.
	mines *lru[string, *mineEntry]
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

// mineEntry pairs a mining database with the result computed from it,
// in the database's own dictionary ID space.
type mineEntry struct {
	db  *itemset.DB
	res *mining.Result
}

func newDeltaManager() *DeltaManager {
	return &DeltaManager{
		lineage:   newLRU[string, *lineageRecord](64, 0),
		states:    newLRU[string, *transact.State](8, 0),
		mines:     newLRU[string, *mineEntry](16, 0),
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

// claimMine removes and returns the mine entry under key (nil on miss).
func (m *DeltaManager) claimMine(key string) *mineEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	me, ok := m.mines.get(key)
	if !ok {
		return nil
	}
	m.mines.remove(key)
	return me
}

// putMine stores a mine entry under key.
func (m *DeltaManager) putMine(key string, me *mineEntry) {
	m.mu.Lock()
	m.mines.put(key, me, 0)
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
// child or parent, its encoding, and its extraction states and mine
// entries (their keys are digest-prefixed, mirroring the result cache).
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
	for _, k := range m.mines.keys() {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			m.mines.remove(k)
		}
	}
}

// resolveExtraction mirrors core.RunContext's options defaulting.
func resolveExtraction(cfg core.Config) transact.Options {
	opts := cfg.Extraction
	if opts.IsZero() {
		opts = transact.DefaultOptions()
	}
	return opts
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
// dirty region and patches the parent's cached mining result instead
// of mining from scratch. Falls back to a full extraction and mine
// whenever any reusable piece is missing — the response is identical
// either way.
func (s *Server) computeScene(ctx context.Context, ds *StoredDataset, key string, cfg core.Config) (*MineResponse, error) {
	opts := resolveExtraction(cfg)
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
			if me := s.deltas.claimMine(pkey); me != nil {
				if resp, err := s.patchMine(ctx, ds, st, me, td, cfg, key); err == nil {
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
	if deltaEligible(cfg) {
		s.deltas.putMine(key, &mineEntry{db: out.DB, res: out.Result})
	}
	return buildResponse(ds.Digest, out, cfg), nil
}

// patchMine advances a parent's (database, result) pair by a table
// delta: tidsets are bit-flipped in place for the changed rows, and the
// parent's frequent set is additively corrected plus a restricted walk
// over the changed items. The response is canonicalised to the order a
// cold mine of the successor state st would produce, so cached and
// delta-served responses are indistinguishable on the wire.
func (s *Server) patchMine(ctx context.Context, ds *StoredDataset, st *transact.State, me *mineEntry, td *transact.TableDelta, cfg core.Config, key string) (*MineResponse, error) {
	tr := obs.FromContext(ctx)
	mcfg, err := core.EffectiveMiningConfig(cfg)
	if err != nil {
		return nil, err
	}
	// Capture old row contents before the in-place patch replaces them.
	deltas := make([]mining.RowDelta, 0, len(td.Changed)+len(td.Deleted))
	edits := make([]itemset.RowEdit, 0, len(td.Changed))
	for _, c := range td.Changed {
		d := mining.RowDelta{New: internItems(me.db, c.New)}
		if old := td.NewFromOld[c.Row]; old >= 0 {
			d.Old = me.db.Rows[old]
		}
		deltas = append(deltas, d)
		edits = append(edits, itemset.RowEdit{Row: c.Row, Items: c.New})
	}
	for _, del := range td.Deleted {
		deltas = append(deltas, mining.RowDelta{Old: me.db.Rows[del.Row]})
	}
	ps := me.db.ApplyDelta(td.NewFromOld, edits)
	tr.Add("delta.tidsets.patched", int64(ps.TidsetsPatched))

	sp := tr.Stage("mine.delta")
	res, _, err := mining.PatchResultContext(ctx, me.db, me.res, mcfg, deltas)
	sp.End()
	if err != nil {
		return nil, err
	}
	tr.Add("delta.mine.patched", 1)
	me.res = res
	s.deltas.putMine(key, me)
	names, table := st.Rows()
	return canonicalResponse(ds.Digest, names, table, me.db.Dict, res, cfg), nil
}

// internItems interns a row's item names against db's dictionary.
func internItems(db *itemset.DB, items []string) itemset.Itemset {
	ids := make([]int32, len(items))
	for i, name := range items {
		ids[i] = db.Dict.Intern(name)
	}
	return itemset.NewItemset(ids...)
}

// canonicalResponse renders a result whose itemsets live in an older
// dictionary in the exact order a cold mine of a table would produce:
// items ranked by first appearance in row order (a fresh dictionary's
// interning order), names within an itemset in rank order, itemsets by
// size then rank-vector. Every engine normalises to that order, so the
// wire form is independent of which dictionary the result was mined in.
// The table is given as indices into names (transact.State.Rows), so
// the ranks come from a seen array, one name per distinct item.
func canonicalResponse(digest string, names []string, table [][]int32, dict *itemset.Dictionary, res *mining.Result, cfg core.Config) *MineResponse {
	rank := make(map[string]int)
	seen := make([]bool, len(names))
	for _, row := range table {
		for _, i := range row {
			if !seen[i] {
				seen[i] = true
				rank[names[i]] = len(rank)
			}
		}
	}
	rankOf := func(name string) int {
		if r, ok := rank[name]; ok {
			return r
		}
		return 1 << 30 // unseen items (impossible for support >= 1) sort last
	}
	type ranked struct {
		names   []string
		ranks   []int
		support int
	}
	rows := make([]ranked, 0, len(res.Frequent))
	for _, f := range res.Frequent {
		names := append([]string{}, f.Items.Names(dict)...)
		sort.Slice(names, func(i, j int) bool {
			ri, rj := rankOf(names[i]), rankOf(names[j])
			if ri != rj {
				return ri < rj
			}
			return names[i] < names[j]
		})
		ranks := make([]int, len(names))
		for i, n := range names {
			ranks[i] = rankOf(n)
		}
		rows = append(rows, ranked{names: names, ranks: ranks, support: f.Support})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if len(a.ranks) != len(b.ranks) {
			return len(a.ranks) < len(b.ranks)
		}
		for k := range a.ranks {
			if a.ranks[k] != b.ranks[k] {
				return a.ranks[k] < b.ranks[k]
			}
		}
		return false
	})
	resp := &MineResponse{
		Algorithm:         cfg.Algorithm.String(),
		Dataset:           digest,
		Transactions:      res.NumTransactions,
		MinSupportCount:   res.MinSupportCount,
		PrunedDeps:        res.PrunedDeps,
		PrunedSameFeature: res.PrunedSameFeature,
		MiningMicros:      res.Duration.Microseconds(),
		Frequent:          make([]ItemsetResult, 0, len(rows)),
	}
	for _, r := range rows {
		resp.Frequent = append(resp.Frequent, ItemsetResult{Items: r.names, Support: r.support})
	}
	return resp
}
