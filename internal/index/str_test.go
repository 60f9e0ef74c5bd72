package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// packLeavesBefore is packLeaves as it was before centre keys: the items
// themselves sorted, each comparison recomputing both centres.
func packLeavesBefore(items []Item) []*rtreeNode {
	sorted := slices.Clone(items)
	slices.SortFunc(sorted, func(a, b Item) int { return cmpLess(a.Env.Center().X, b.Env.Center().X) })
	n := len(sorted)
	leafCount := (n + rtreeMaxEntries - 1) / rtreeMaxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sliceSize := (n + sliceCount - 1) / sliceCount

	var leaves []*rtreeNode
	for s := 0; s < n; s += sliceSize {
		slice := sorted[s:min(s+sliceSize, n)]
		slices.SortFunc(slice, func(a, b Item) int { return cmpLess(a.Env.Center().Y, b.Env.Center().Y) })
		for o := 0; o < len(slice); o += rtreeMaxEntries {
			oEnd := min(o+rtreeMaxEntries, len(slice))
			leaves = append(leaves, &rtreeNode{leaf: true, items: slice[o:oEnd:oEnd]})
		}
	}
	return leaves
}

// strTrialItems draws a random item set whose centres tie often, on a
// coarse grid, and include NaN (an empty envelope, or infinities of
// both signs on one axis), ±Inf, and empty envelopes.
func strTrialItems(rng *rand.Rand) []Item {
	// NewRTreeBulk builds no leaves for an empty set.
	n := 1 + rng.Intn(400)
	if rng.Intn(4) == 0 {
		n = 1 + rng.Intn(20)
	}
	coord := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		case 2:
			return math.NaN()
		}
		return float64(rng.Intn(8))
	}
	items := make([]Item, n)
	for i := range items {
		env := geom.EmptyEnvelope()
		if rng.Intn(10) != 0 {
			x, y := coord(), coord()
			env = geom.Envelope{MinX: x, MinY: y, MaxX: x + float64(rng.Intn(3)), MaxY: y + float64(rng.Intn(3))}
			if rng.Intn(10) == 0 {
				env.MinX, env.MaxX = math.Inf(-1), math.Inf(1)
			}
		}
		items[i] = Item{Env: env, ID: i}
	}
	return items
}

// TestSTRBuildMatchesItemSort holds the centre-key STR build to the
// sort of the items themselves: over random item sets with tied, NaN,
// infinite and empty-envelope centres, every leaf holds the same item
// IDs in the same order.
func TestSTRBuildMatchesItemSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := range 3000 {
		items := strTrialItems(rng)
		got, want := packLeaves(items), packLeavesBefore(items)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d leaves, want %d", trial, len(got), len(want))
		}
		for l := range got {
			if !slices.EqualFunc(got[l].items, want[l].items, func(a, b Item) bool { return a.ID == b.ID }) {
				t.Fatalf("trial %d (%d items): leaf %d holds %v, want %v", trial, len(items), l, leafIDs(got[l]), leafIDs(want[l]))
			}
		}
	}
}

func leafIDs(n *rtreeNode) []int {
	ids := make([]int, len(n.items))
	for i, it := range n.items {
		ids[i] = it.ID
	}
	return ids
}
