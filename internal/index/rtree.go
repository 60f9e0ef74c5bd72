// Package index provides the candidate filter of the spatial join over
// envelope-keyed items: an immutable R-tree bulk-loaded with the
// sort-tile-recursive (STR) algorithm, and Linear, the nested-loop oracle
// it is checked against. Both answer window and distance queries behind
// one interface. Layer puts one of them over a layer's geometries as one
// side of the join: predicate extraction, its delta path and co-location
// mining enumerate candidate feature pairs through it before the exact
// test, as a GIS would.
package index

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// Item is an entry stored in a spatial index: an envelope plus an opaque
// identifier chosen by the caller (typically a feature index).
type Item struct {
	Env geom.Envelope
	ID  int
}

// SpatialIndex enumerates stored items by spatial predicate.
type SpatialIndex interface {
	// Search appends to dst the IDs of all items whose envelope
	// intersects query, and returns the extended slice. Order is
	// unspecified.
	Search(query geom.Envelope, dst []int) []int
	// SearchDistance appends to dst the IDs of all items whose envelope
	// lies within distance d of query, and returns the extended slice.
	SearchDistance(query geom.Envelope, d float64, dst []int) []int
	// Len reports the number of stored items.
	Len() int
}

// rtreeMaxEntries is the node fan-out.
const rtreeMaxEntries = 9

// RTree is an immutable R-tree over envelope items, built once by
// NewRTreeBulk with the sort-tile-recursive (STR) algorithm. The zero
// value is an empty tree.
type RTree struct {
	root *rtreeNode
	size int
}

type rtreeNode struct {
	env      geom.Envelope
	leaf     bool
	items    []Item       // leaf payload
	children []*rtreeNode // internal payload
}

// NewRTreeBulk builds an STR-packed R-tree from the given items. The
// resulting tree is balanced and has near-minimal overlap.
func NewRTreeBulk(items []Item) *RTree {
	t := &RTree{size: len(items)}
	if len(items) == 0 {
		return t
	}
	leaves := packLeaves(items)
	t.root = packUp(leaves)
	return t
}

// packLeaves tiles the items into leaf nodes using sort-tile-recursive.
// The sorts order centreKey pairs, not items: each item's centre X is
// computed once, the pairs are sorted, then each vertical slice's keys
// are replaced by its items' centre Y and the slice is sorted again, and
// the items are gathered once in the final order. The pairs start in
// the order the items would have, and slices.SortFunc's decisions
// depend only on the comparisons, so the tree is the one sorting the
// items themselves built, ties and NaN centres included.
func packLeaves(items []Item) []*rtreeNode {
	n := len(items)
	keys := make([]centreKey, n)
	for i, it := range items {
		keys[i] = centreKey{it.Env.Center().X, i}
	}
	slices.SortFunc(keys, centreKey.cmp)
	leafCount := (n + rtreeMaxEntries - 1) / rtreeMaxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sliceSize := (n + sliceCount - 1) / sliceCount
	for s := 0; s < n; s += sliceSize {
		slice := keys[s:min(s+sliceSize, n)]
		for i, k := range slice {
			slice[i].key = items[k.pos].Env.Center().Y
		}
		slices.SortFunc(slice, centreKey.cmp)
	}
	sorted := make([]Item, n)
	for i, k := range keys {
		sorted[i] = items[k.pos]
	}

	var leaves []*rtreeNode
	for s := 0; s < n; s += sliceSize {
		slice := sorted[s:min(s+sliceSize, n)]
		for o := 0; o < len(slice); o += rtreeMaxEntries {
			oEnd := o + rtreeMaxEntries
			if oEnd > len(slice) {
				oEnd = len(slice)
			}
			leaf := &rtreeNode{leaf: true, items: slice[o:oEnd:oEnd]}
			leaf.recomputeEnv()
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// centreKey is one item's centre coordinate on the axis being sorted
// and the item's position in the input.
type centreKey struct {
	key float64
	pos int
}

func (a centreKey) cmp(b centreKey) int { return cmpLess(a.key, b.key) }

// packUp builds internal levels over the given nodes until one root
// remains.
func packUp(nodes []*rtreeNode) *rtreeNode {
	for len(nodes) > 1 {
		slices.SortFunc(nodes, func(a, b *rtreeNode) int { return cmpLess(a.env.Center().X, b.env.Center().X) })
		var next []*rtreeNode
		for o := 0; o < len(nodes); o += rtreeMaxEntries {
			end := o + rtreeMaxEntries
			if end > len(nodes) {
				end = len(nodes)
			}
			parent := &rtreeNode{children: append([]*rtreeNode{}, nodes[o:end]...)}
			parent.recomputeEnv()
			next = append(next, parent)
		}
		nodes = next
	}
	return nodes[0]
}

// cmpLess is the three-way form of a < b: it reports a before b exactly
// when a < b holds, so a sort makes the same decisions as with the
// boolean comparison, NaN included.
func cmpLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

func (n *rtreeNode) recomputeEnv() {
	e := geom.EmptyEnvelope()
	if n.leaf {
		for _, it := range n.items {
			e = e.Union(it.Env)
		}
	} else {
		for _, c := range n.children {
			e = e.Union(c.env)
		}
	}
	n.env = e
}

// Len implements SpatialIndex.
func (t *RTree) Len() int { return t.size }

// Search implements SpatialIndex.
func (t *RTree) Search(query geom.Envelope, dst []int) []int {
	if t.root == nil {
		return dst
	}
	return t.root.search(query, dst)
}

func (n *rtreeNode) search(query geom.Envelope, dst []int) []int {
	if !n.env.Intersects(query) {
		return dst
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Env.Intersects(query) {
				dst = append(dst, it.ID)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = c.search(query, dst)
	}
	return dst
}

// SearchDistance implements SpatialIndex.
func (t *RTree) SearchDistance(query geom.Envelope, d float64, dst []int) []int {
	if t.root == nil {
		return dst
	}
	return t.root.searchDistance(query, d, dst)
}

func (n *rtreeNode) searchDistance(query geom.Envelope, d float64, dst []int) []int {
	if !n.env.WithinDistance(query, d) {
		return dst
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Env.WithinDistance(query, d) {
				dst = append(dst, it.ID)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = c.searchDistance(query, d, dst)
	}
	return dst
}

// Height returns the number of levels in the tree (0 when empty); useful
// for balance assertions in tests.
func (t *RTree) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.leaf {
			break
		}
		n = n.children[0]
	}
	return h
}
