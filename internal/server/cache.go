package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/api"
	"repro/internal/core"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/server/persist"
)

// CacheKey canonicalises a mining request to its result-cache key:
// the dataset digest plus the deterministic JSON encoding of the config
// with the dependency set Φ normalised (each unordered pair spelled
// smaller-item-first, pairs sorted, duplicates dropped) and, when rules
// are off, MinConfidence zeroed, since only the rules stage reads it.
// Two requests that cannot produce different results therefore share a
// key.
func CacheKey(digest string, cfg core.Config) (string, error) {
	if !cfg.GenerateRules {
		cfg.MinConfidence = 0
	}
	if len(cfg.Dependencies) > 0 {
		deps := make([]mining.Pair, len(cfg.Dependencies))
		copy(deps, cfg.Dependencies)
		for i, p := range deps {
			if p.B < p.A {
				deps[i] = mining.Pair{A: p.B, B: p.A}
			}
		}
		sort.Slice(deps, func(i, j int) bool {
			if deps[i].A != deps[j].A {
				return deps[i].A < deps[j].A
			}
			return deps[i].B < deps[j].B
		})
		uniq := deps[:1]
		for _, p := range deps[1:] {
			if p != uniq[len(uniq)-1] {
				uniq = append(uniq, p)
			}
		}
		cfg.Dependencies = uniq
	}
	canonical, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("server: canonicalising config: %w", err)
	}
	return digest + "|" + string(canonical), nil
}

// ResultCache memoises mining responses by CacheKey with LRU eviction,
// so repeated identical requests are served without re-mining. Cached
// responses are immutable; readers receive shallow copies with the
// Cached flag set. With a ResultPersistence attached, fills write
// through to disk and a memory miss falls back to the persisted entry
// — served only after its digest chain verifies; a corrupt or
// mismatched entry is discarded, counted under
// server.persist.verify_failures, and recomputed. Safe for concurrent
// use.
type ResultCache struct {
	mu                      sync.Mutex
	lru                     *lru[string, *MineResponse]
	hits, misses, evictions int64
	persist                 ResultPersistence // nil = memory-only
	trace                   *obs.Trace        // persist counter sink (may be nil)
}

// NewResultCache returns a cache capped at maxEntries (0 = unlimited).
func NewResultCache(maxEntries int) *ResultCache {
	return &ResultCache{lru: newLRU[string, *MineResponse](maxEntries, 0)}
}

// Persist attaches the durable tier (and the trace its verification
// and hit counters flow to). Set before serving traffic.
func (c *ResultCache) Persist(p ResultPersistence, trace *obs.Trace) {
	c.persist = p
	c.trace = trace
}

func (c *ResultCache) count(name string) {
	if c.trace != nil {
		c.trace.Add(name, 1)
	}
}

// Get returns a copy of the cached response for key, counting the hit
// or miss. A memory miss consults the durable tier; a verified
// persisted entry is re-admitted to memory and served as a hit.
func (c *ResultCache) Get(key string) (*MineResponse, bool) {
	c.mu.Lock()
	if resp, ok := c.lru.get(key); ok {
		c.hits++
		c.mu.Unlock()
		cp := *resp
		cp.Cached = true
		return &cp, true
	}
	c.mu.Unlock()
	if c.persist != nil {
		resp, err := c.persist.LoadResult(key)
		switch {
		case err == nil:
			c.count("server.persist.result_hits")
			c.mu.Lock()
			c.lru.put(key, resp, 0) // memory-tier eviction only; disk copies stay
			c.hits++
			c.mu.Unlock()
			cp := *resp
			cp.Cached = true
			return &cp, true
		case errors.Is(err, persist.ErrVerifyFailed):
			c.count("server.persist.verify_failures")
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// peek returns the response held in memory under key, or nil. It
// counts no hit or miss, leaves recency alone and never reads the
// durable tier: the delta pipeline looks up a PATCH parent's response
// through it, and that lookup serves no request for the response.
func (c *ResultCache) peek(key string) *MineResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, _ := c.lru.peek(key)
	return resp
}

// Put stores a response under key, writing through to the durable
// tier when one is attached. A failed persistence write degrades that
// entry to memory-only and is counted, never surfaced to the request.
func (c *ResultCache) Put(key string, resp *MineResponse) {
	c.mu.Lock()
	c.evictions += int64(len(c.lru.put(key, resp, 0)))
	c.mu.Unlock()
	if c.persist != nil {
		if err := c.persist.SaveResult(key, resp); err != nil {
			c.count("server.persist.save_errors")
		}
	}
}

// InvalidateDataset drops every cached response computed from digest
// (cache keys are "digest|canonical-config", so a prefix scan finds
// exactly the dependents) and returns the number of entries removed.
// Only the memory tier is touched: persisted entries are verifiable
// and stay correct for a re-uploaded identical dataset; DELETE removes
// them explicitly via ResultPersistence.DeleteResults.
func (c *ResultCache) InvalidateDataset(digest string) int {
	prefix := digest + "|"
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, key := range c.lru.keys() {
		if strings.HasPrefix(key, prefix) && c.lru.remove(key) {
			n++
		}
	}
	return n
}

// CacheStats is the cache's /metrics snapshot.
type CacheStats = api.CacheStats

// Stats snapshots the cache counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: c.lru.len(), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
