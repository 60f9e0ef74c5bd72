package transact

import (
	"math/bits"
	"slices"
	"strings"
)

// vocab is a State's item vocabulary: every item string its rows have
// held, each under the index it was added with. Rows hold these
// indices, never strings, and the names are rendered only where a
// caller reads a string row (Table, TableDelta). The order of the
// indices carries no meaning.
//
// byRank lists the indices in the byte order of their names, the order
// a Table row lists its items in, and a name is found by searching it.
// Names are only ever added, and an added name never reorders the names
// already there, so a row normalised under an older rank is still in
// rank order under a newer one: only the rows a build or an Apply
// renders are normalised.
//
// The vocabulary is written only between row passes: a pass's workers
// leave the names it meets as pending codes (see rowPass), which are
// interned after it.
type vocab struct {
	names []string
	// rank is the inverse of byRank, rank[byRank[r]] == r, as of the
	// last rerank.
	byRank, rank []int32
}

// term is a name to intern and the slot its index is written to.
type term struct {
	name string
	slot int32
}

// byName orders terms by the byte order of their names.
func byName(a, b term) int {
	return strings.Compare(a.name, b.name)
}

// intern writes the index of each name of terms, which must be sorted
// by name, to out[slot], adding the names the vocabulary does not
// hold at their place in byRank. Each name is searched for from where
// the one before it was found, so interning a sorted run costs about a
// merge with byRank when the run is long and a few searches when it is
// short. rank is stale until rerank.
func (v *vocab) intern(terms []term, out []int32) {
	if len(terms) == 0 {
		return
	}
	byRank := make([]int32, 0, len(v.byRank)+len(terms))
	rest := v.byRank
	last := int32(-1)
	for _, t := range terms {
		if last < 0 || v.names[last] != t.name {
			at, found := v.search(rest, t.name)
			byRank = append(byRank, rest[:at]...)
			rest = rest[at:]
			if found {
				last = rest[0]
			} else {
				last = int32(len(v.names))
				v.names = append(v.names, t.name)
				byRank = append(byRank, last)
			}
		}
		out[t.slot] = last
	}
	v.byRank = append(byRank, rest...)
}

// internAll returns the indices of names, adding those the vocabulary
// does not hold.
func (v *vocab) internAll(names ...string) []int32 {
	terms := make([]term, len(names))
	for k, name := range names {
		terms[k] = term{name, int32(k)}
	}
	slices.SortFunc(terms, byName)
	out := make([]int32, len(names))
	v.intern(terms, out)
	return out
}

// search returns the position of name in ranked, a run of byRank, or
// where it would be inserted, and whether it is there. It gallops from
// the front, so a name near the front costs few comparisons.
func (v *vocab) search(ranked []int32, name string) (int, bool) {
	bound := 1
	for bound <= len(ranked) && v.names[ranked[bound-1]] < name {
		bound *= 2
	}
	lo, hi := bound/2, min(bound, len(ranked))
	at, found := slices.BinarySearchFunc(ranked[lo:hi], name, func(i int32, name string) int {
		return strings.Compare(v.names[i], name)
	})
	return lo + at, found
}

// rerank brings rank up to date with byRank after names were added.
func (v *vocab) rerank() {
	if len(v.rank) == len(v.names) {
		return
	}
	v.rank = slices.Grow(v.rank[:0], len(v.names))[:len(v.names)]
	for r, i := range v.byRank {
		v.rank[i] = int32(r)
	}
}

// normalise replaces each pending code in row by its index in held,
// then appends the row's distinct indices, in rank order, to it and
// returns the extended slice. Every index must be ranked.
func (v *vocab) normalise(row []int32, held *heldCodes) []int32 {
	start := len(row)
	for k, i := range row[:start] {
		if i < 0 {
			i = held.lookup(-1 - i)
			row[k] = i
		}
		row = append(row, v.rank[i])
	}
	slices.Sort(row[start:])
	norm := slices.Compact(row[start:])
	for k, r := range norm {
		norm[k] = v.byRank[r]
	}
	return row[:start+len(norm)]
}

// render returns the names of a normalised row in a fresh slice.
func (v *vocab) render(norm []int32) []string {
	out := make([]string, len(norm))
	for k, i := range norm {
		out[k] = v.names[i]
	}
	return out
}

// heldCodes is the set of pending codes that the rows a pass rendered
// hold, with the vocabulary index of each: a bit per code, the number
// of codes held below each word of bits, and index[k], the index of the
// k-th code held in ascending order.
type heldCodes struct {
	bits   []uint64
	before []int32
	index  []int32
}

// newHeldCodes returns an empty set of codes below n.
func newHeldCodes(n int) *heldCodes {
	return &heldCodes{bits: make([]uint64, (n+63)/64)}
}

// add marks code c held.
func (h *heldCodes) add(c int32) {
	h.bits[c>>6] |= 1 << (c & 63)
}

// list numbers the held codes and returns them in ascending order;
// index has room for the index of each.
func (h *heldCodes) list() []int32 {
	h.before = make([]int32, len(h.bits))
	var codes []int32
	for w, word := range h.bits {
		h.before[w] = int32(len(codes))
		for ; word != 0; word &= word - 1 {
			codes = append(codes, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
	h.index = make([]int32, len(codes))
	return codes
}

// lookup returns the index of held code c.
func (h *heldCodes) lookup(c int32) int32 {
	w := c >> 6
	return h.index[h.before[w]+int32(bits.OnesCount64(h.bits[w]&(1<<(c&63)-1)))]
}
