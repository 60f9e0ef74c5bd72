// Package itemset provides the frequent-pattern plumbing shared by the
// mining algorithms: an interning dictionary that knows each item's
// semantics (spatial predicate with its feature type, or non-spatial
// attribute), sorted integer itemsets, and a transaction database with
// vertical (bitmap tidset) support counting and a row-scan counter, the
// brute-force reference.
package itemset

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/qsr"
)

// Kind classifies an item.
type Kind int

// Item kinds.
const (
	// KindNonSpatial marks attribute items ("murderRate=high").
	KindNonSpatial Kind = iota
	// KindSpatial marks qualitative spatial predicates ("contains_slum").
	KindSpatial
)

// Meta is the semantic information attached to an interned item. The
// Apriori-KC+ filter consumes FeatureType; everything else is labeling.
type Meta struct {
	// Name is the item string.
	Name string
	// Kind distinguishes spatial predicates from attribute items.
	Kind Kind
	// FeatureType is the relevant feature type for spatial predicates
	// ("slum" in "contains_slum"), empty for non-spatial items.
	FeatureType string
	// Relation is the qualitative relation of spatial predicates.
	Relation qsr.Relation
}

// Dictionary interns item strings to dense int32 IDs and keeps their
// metadata. IDs are assigned in first-seen order.
type Dictionary struct {
	byName map[string]int32
	metas  []Meta
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byName: make(map[string]int32)}
}

// Intern returns the ID for name, assigning one on first sight. Spatial
// predicate semantics are parsed from the name: anything of the form
// "<relation>_<featureType>" with a known relation is spatial; everything
// else (notably "attr=value" items) is non-spatial. The dictionary keeps
// a copy of each new name, so it never pins the larger string a name is
// cut from, such as the body of a parsed table.
func (d *Dictionary) Intern(name string) int32 {
	if id, ok := d.byName[name]; ok {
		return id
	}
	name = strings.Clone(name)
	id := int32(len(d.metas))
	meta := Meta{Name: name, Kind: KindNonSpatial}
	if !strings.ContainsRune(name, '=') {
		if p, err := qsr.ParsePredicate(name); err == nil {
			meta.Kind = KindSpatial
			meta.FeatureType = p.FeatureType
			meta.Relation = p.Relation
		}
	}
	d.byName[name] = id
	d.metas = append(d.metas, meta)
	return id
}

// Lookup returns the ID for name without interning.
func (d *Dictionary) Lookup(name string) (int32, bool) {
	id, ok := d.byName[name]
	return id, ok
}

// LookupAll returns the itemset of those names the dictionary holds,
// without interning any; ok reports whether it holds them all.
func (d *Dictionary) LookupAll(names []string) (s Itemset, ok bool) {
	s = make(Itemset, 0, len(names))
	ok = true
	for _, name := range names {
		if id, found := d.byName[name]; found {
			s = append(s, id)
		} else {
			ok = false
		}
	}
	return sortUnique(s), ok
}

// Meta returns the metadata of an interned item.
func (d *Dictionary) Meta(id int32) Meta { return d.metas[id] }

// Name returns the item string of an interned item.
func (d *Dictionary) Name(id int32) string { return d.metas[id].Name }

// Len reports the number of interned items.
func (d *Dictionary) Len() int { return len(d.metas) }

// SameFeatureType reports whether two items are spatial predicates over
// the same relevant feature type — the Apriori-KC+ pruning condition.
func (d *Dictionary) SameFeatureType(a, b int32) bool {
	ma, mb := d.metas[a], d.metas[b]
	return ma.Kind == KindSpatial && mb.Kind == KindSpatial &&
		ma.FeatureType == mb.FeatureType
}

// Itemset is a set of interned items, sorted ascending. The zero value is
// the empty set.
type Itemset []int32

// NewItemset builds a normalised itemset from IDs.
func NewItemset(ids ...int32) Itemset {
	return sortUnique(append(Itemset{}, ids...))
}

// sortUnique normalises s in place — sorted ascending, repeats dropped —
// and returns the normalised prefix. slices.Sort insertion-sorts short
// inputs such as transaction rows, without sort.Slice's reflection.
func sortUnique(s Itemset) Itemset {
	slices.Sort(s)
	return slices.Compact(s)
}

// FromNames interns the names and builds the itemset.
func FromNames(d *Dictionary, names ...string) Itemset {
	ids := make([]int32, len(names))
	for i, n := range names {
		ids[i] = d.Intern(n)
	}
	return NewItemset(ids...)
}

// Equal reports element-wise equality.
func (s Itemset) Equal(o Itemset) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// ContainsAll reports whether s is a superset of sub (both sorted).
func (s Itemset) ContainsAll(sub Itemset) bool {
	i := 0
	for _, v := range sub {
		for i < len(s) && s[i] < v {
			i++
		}
		if i >= len(s) || s[i] != v {
			return false
		}
		i++
	}
	return true
}

// Contains reports membership of a single item.
func (s Itemset) Contains(id int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// Without returns a copy of s with the item at index idx removed.
func (s Itemset) Without(idx int) Itemset {
	out := make(Itemset, 0, len(s)-1)
	out = append(out, s[:idx]...)
	return append(out, s[idx+1:]...)
}

// Union returns the sorted union of two itemsets.
func (s Itemset) Union(o Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			out = append(out, s[i])
			i++
		case s[i] > o[j]:
			out = append(out, o[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	return append(out, o[j:]...)
}

// AppendKey appends the itemset's compact map key, each ID as four
// little-endian bytes, to dst. A caller can look a key up as
// m[string(s.AppendKey(buf[:0]))] without allocating.
func (s Itemset) AppendKey(dst []byte) []byte {
	for _, v := range s {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// Key returns the itemset's compact map key (see AppendKey).
func (s Itemset) Key() string {
	var buf [64]byte
	return string(s.AppendKey(buf[:0]))
}

// Names renders the member item strings.
func (s Itemset) Names(d *Dictionary) []string {
	out := make([]string, len(s))
	for i, id := range s {
		out[i] = d.Name(id)
	}
	return out
}

// Format renders the paper's itemset notation: "{a, b, c}".
func (s Itemset) Format(d *Dictionary) string {
	return "{" + strings.Join(s.Names(d), ", ") + "}"
}

// HasSameFeaturePair reports whether the itemset contains two spatial
// predicates over the same feature type — the property that makes a
// pattern "meaningless" in the paper's sense.
func (s Itemset) HasSameFeaturePair(d *Dictionary) bool {
	seen := make(map[string]struct{}, len(s))
	for _, id := range s {
		m := d.Meta(id)
		if m.Kind != KindSpatial {
			continue
		}
		if _, dup := seen[m.FeatureType]; dup {
			return true
		}
		seen[m.FeatureType] = struct{}{}
	}
	return false
}

// DB is a transaction database ready for mining: interned sorted rows plus
// lazily built vertical bitmaps.
type DB struct {
	Dict *Dictionary
	// Rows hold each transaction's sorted item IDs.
	Rows []Itemset
	// tidsetsOnce guards the one-time construction of tidsets, so the
	// lazy vertical build is safe when goroutines race to the first use.
	tidsetsOnce sync.Once
	// tidsets[i] is the bitmap of rows containing item i; nil until
	// BuildTidsets runs.
	tidsets []bitset
}

// NewDB interns a dataset table into a mining-ready database. IDs are
// assigned in first-seen order, row by row and item by item; they order
// Result.Frequent. All rows share one backing array and each row is a
// capacity-capped slice of it, so an append to one row can never
// overwrite the next. An empty table gives nil Rows. A table of at
// least twice internChunkRows rows is interned in contiguous row chunks
// on up to GOMAXPROCS workers, with the same IDs and rows.
func NewDB(t *dataset.Table) *DB {
	return newDB(t, par.Workers(0, len(t.Transactions)/internChunkRows))
}

// internChunkRows is the least number of rows a NewDB worker is given.
// In BenchmarkNewDBChunks on the 2-core reference host two chunks beat
// one by about 30 % from 2,048 rows and are within the noise at 1,024.
// Scene tables (784 rows in the cli-scene benchmark, 400 in serve-mix)
// intern as one chunk.
const internChunkRows = 2048

// newDB interns t in at most chunks contiguous row chunks on a par
// pool. Chunk 0 interns into db.Dict, since its first-seen order is the
// table's; every later chunk interns into a dictionary of its own and
// writes those local IDs into its rows' windows of the one backing.
// Merging the local dictionaries in chunk order through db.Dict.Intern
// then hands out exactly the IDs one pass over the rows would, and a
// second pass on the pool rewrites the later chunks' IDs and sorts and
// compacts every row in place.
func newDB(t *dataset.Table, chunks int) *DB {
	db := &DB{Dict: NewDictionary()}
	txs := t.Transactions
	if len(txs) == 0 {
		return db
	}
	chunks = min(chunks, len(txs))
	// Chunk c holds rows [lo(c), lo(c+1)) and their items from
	// starts[c] on.
	lo := func(c int) int { return c * len(txs) / chunks }
	starts := make([]int, chunks+1)
	for c := range chunks {
		n := 0
		for _, tx := range txs[lo(c):lo(c+1)] {
			n += len(tx.Items)
		}
		starts[c+1] = starts[c] + n
	}
	backing := make([]int32, starts[chunks])
	db.Rows = make([]Itemset, len(txs))
	dicts := make([]*Dictionary, chunks)
	dicts[0] = db.Dict
	workers := par.Workers(0, chunks)
	// context.TODO never cancels, so For always runs every chunk.
	_ = par.For(context.TODO(), chunks, workers, func(_, c int) {
		if c > 0 {
			dicts[c] = NewDictionary()
		}
		d, off := dicts[c], starts[c]
		for _, tx := range txs[lo(c):lo(c+1)] {
			for _, name := range tx.Items {
				backing[off] = d.Intern(name)
				off++
			}
		}
	})
	ids := make([][]int32, chunks)
	for c, d := range dicts[1:] {
		ids[c+1] = make([]int32, d.Len())
		for local, m := range d.metas {
			ids[c+1][local] = db.Dict.Intern(m.Name)
		}
	}
	_ = par.For(context.TODO(), chunks, workers, func(_, c int) {
		off := starts[c]
		for i, tx := range txs[lo(c):lo(c+1)] {
			row := Itemset(backing[off : off+len(tx.Items)])
			off += len(row)
			if c > 0 {
				for j, local := range row {
					row[j] = ids[c][local]
				}
			}
			row = sortUnique(row)
			db.Rows[lo(c)+i] = row[:len(row):len(row)]
		}
	})
	return db
}

// NewDBIndexed builds the database of a table whose rows are given as
// indices into names: rows[j] lists the items of the table's row j in
// the row's own order, as transact.State.Rows gives them. It is NewDB of
// the rendered table without rendering it or hashing an item per row:
// each distinct name is interned once, the first time a row holds it,
// through a seen array over the indices, so IDs come in NewDB's
// first-seen order and the dictionary (names, metas, IDs) and rows are
// NewDB's. The rows share one backing array as NewDB's do.
func NewDBIndexed(names []string, rows [][]int32) *DB {
	db := &DB{Dict: NewDictionary()}
	if len(rows) == 0 {
		return db
	}
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	backing := make([]int32, total)
	db.Rows = make([]Itemset, len(rows))
	// ids[i] is names[i]'s ID plus one, 0 while no row has held it.
	ids := make([]int32, len(names))
	off := 0
	for j, r := range rows {
		row := Itemset(backing[off : off+len(r)])
		off += len(r)
		for k, i := range r {
			if ids[i] == 0 {
				ids[i] = db.Dict.Intern(names[i]) + 1
			}
			row[k] = ids[i] - 1
		}
		row = sortUnique(row)
		db.Rows[j] = row[:len(row):len(row)]
	}
	return db
}

// NumTransactions reports the number of rows.
func (db *DB) NumTransactions() int { return len(db.Rows) }

// BuildTidsets materialises the vertical representation. Idempotent and
// safe for concurrent use: racing goroutines block until the single
// build completes, then share the read-only bitmaps.
func (db *DB) BuildTidsets() {
	db.tidsetsOnce.Do(db.buildTidsets)
}

func (db *DB) buildTidsets() {
	tidsets := make([]bitset, db.Dict.Len())
	words := (len(db.Rows) + 63) / 64
	for i := range tidsets {
		tidsets[i] = make(bitset, words)
	}
	for row, items := range db.Rows {
		for _, id := range items {
			tidsets[id].set(row)
		}
	}
	db.tidsets = tidsets
}

// Tidset returns the bitmap of rows containing the item, building the
// vertical representation on first use (safe for concurrent use).
func (db *DB) Tidset(id int32) []uint64 {
	db.BuildTidsets()
	return db.tidsets[id]
}

// SupportHorizontal counts rows containing every item of s by scanning:
// the brute-force reference the bitmap counters are checked against.
func (db *DB) SupportHorizontal(s Itemset) int {
	count := 0
	for _, row := range db.Rows {
		if row.ContainsAll(s) {
			count++
		}
	}
	return count
}

// VerticalCounter computes candidate supports against one DB with a
// prefix-intersection cache and pooled buffers. Candidates produced by
// the Apriori join arrive sorted, so consecutive k-candidates share a
// (k-1)-prefix; the counter keeps one intersection bitmap per prefix
// depth and re-intersects only the suffix that changed, finishing with a
// popcount-only AND of the final item's tidset. Steady-state counting is
// allocation-free. A counter is not safe for concurrent use; give each
// goroutine its own (they share the DB's read-only tidsets).
type VerticalCounter struct {
	db    *DB
	words int
	// prefix is the candidate prefix the layers were built for.
	prefix Itemset
	// layers[d] is the intersection of the tidsets of prefix[0..d],
	// materialised for d >= 1 (depth 0 reads the item tidset directly).
	layers []bitset
}

// NewVerticalCounter builds the vertical representation if needed and
// returns a fresh counter; constructing counters concurrently on a
// fresh DB is safe (the first build is synchronised).
func (db *DB) NewVerticalCounter() *VerticalCounter {
	db.BuildTidsets()
	return &VerticalCounter{db: db, words: (len(db.Rows) + 63) / 64}
}

// Support counts the rows containing every item of s. Calling it with a
// sorted candidate stream reuses the shared-prefix intersections across
// calls; arbitrary orders stay correct, merely uncached.
func (c *VerticalCounter) Support(s Itemset) int {
	k := len(s)
	tids := c.db.tidsets
	switch k {
	case 0:
		return len(c.db.Rows)
	case 1:
		return tids[s[0]].count()
	case 2:
		return andCount(tids[s[0]], tids[s[1]])
	}
	// Longest prefix (up to k-1 items) still valid from the last call.
	p := 0
	for p < len(c.prefix) && p < k-1 && c.prefix[p] == s[p] {
		p++
	}
	for len(c.layers) < k-1 {
		c.layers = append(c.layers, make(bitset, c.words))
	}
	// layers[d] depends on s[0..d]: rebuild depths p..k-2 (depth 0 is
	// the raw tidset, so rebuilding starts at 1 at the earliest).
	start := p
	if start < 1 {
		start = 1
	}
	for d := start; d <= k-2; d++ {
		if d == 1 {
			andInto(c.layers[1], tids[s[0]], tids[s[1]])
		} else {
			andInto(c.layers[d], c.layers[d-1], tids[s[d]])
		}
	}
	c.prefix = append(c.prefix[:0], s[:k-1]...)
	return andCount(c.layers[k-2], tids[s[k-1]])
}

// ItemCounts returns the per-item support counts in one pass, the
// workhorse of the first Apriori pass.
func (db *DB) ItemCounts() []int {
	counts := make([]int, db.Dict.Len())
	for _, row := range db.Rows {
		for _, id := range row {
			counts[id]++
		}
	}
	return counts
}

// String renders a compact summary for debugging.
func (db *DB) String() string {
	return fmt.Sprintf("itemset.DB{%d rows, %d items}", len(db.Rows), db.Dict.Len())
}
