package colocation

import "container/heap"

// selectTopK keeps the k best patterns from prevalent — highest PI
// first, ties broken by smaller size, then lexicographically smaller
// type names (two distinct patterns can never tie fully, so selection
// is deterministic) — and returns them in the canonical size-then-name
// order the walk produced. A bounded min-heap of size k holds the
// current survivors with the worst at the root, so selection costs
// O(n log k) and never copies the full table.
func selectTopK(prevalent []Pattern, k int) []Pattern {
	if k <= 0 || len(prevalent) <= k {
		return prevalent
	}
	h := &patternHeap{idx: make([]int, 0, k), pats: prevalent}
	for i := range prevalent {
		if h.Len() < k {
			heap.Push(h, i)
		} else if betterPattern(&prevalent[i], &prevalent[h.idx[0]]) {
			h.idx[0] = i
			heap.Fix(h, 0)
		}
	}
	keep := make([]bool, len(prevalent))
	for _, i := range h.idx {
		keep[i] = true
	}
	out := make([]Pattern, 0, k)
	for i := range prevalent {
		if keep[i] {
			out = append(out, prevalent[i])
		}
	}
	return out
}

// betterPattern ranks a strictly above b: higher PI, then smaller
// size, then lexicographically smaller type names.
func betterPattern(a, b *Pattern) bool {
	if a.PI != b.PI {
		return a.PI > b.PI
	}
	if len(a.Types) != len(b.Types) {
		return len(a.Types) < len(b.Types)
	}
	for i := range a.Types {
		if a.Types[i] != b.Types[i] {
			return a.Types[i] < b.Types[i]
		}
	}
	return false
}

// patternHeap is a min-heap of indices into pats ordered so the worst
// surviving pattern sits at the root.
type patternHeap struct {
	idx  []int
	pats []Pattern
}

func (h *patternHeap) Len() int { return len(h.idx) }
func (h *patternHeap) Less(i, j int) bool {
	return betterPattern(&h.pats[h.idx[j]], &h.pats[h.idx[i]])
}
func (h *patternHeap) Swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *patternHeap) Push(x any)    { h.idx = append(h.idx, x.(int)) }
func (h *patternHeap) Pop() any      { n := len(h.idx) - 1; v := h.idx[n]; h.idx = h.idx[:n]; return v }
