package itemset

import "math/bits"

// bitset is a fixed-width bitmap over transaction row indices.
type bitset []uint64

// set marks row i.
func (b bitset) set(i int) { b[i/64] |= 1 << (i % 64) }

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// andInto sets dst = a & b. All lengths must match.
func andInto(dst, a, b bitset) {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

// andCount returns popcount(a & b) without materialising the
// intersection — the final AND of a cached-prefix support count.
func andCount(a, b bitset) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n
}
