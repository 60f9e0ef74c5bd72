package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// makeItems generates n random small rectangles in a world of the given
// extent, deterministic per seed.
func makeItems(n int, extent float64, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x := rng.Float64() * extent
		y := rng.Float64() * extent
		w := rng.Float64()*4 + 0.1
		h := rng.Float64()*4 + 0.1
		items[i] = Item{Env: geom.Envelope{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, ID: i}
	}
	return items
}

// sortedIDs is a helper for order-insensitive comparison.
func sortedIDs(ids []int) []int {
	out := append([]int{}, ids...)
	sort.Ints(out)
	return out
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// indexBuilders enumerates every index implementation under test, each
// built from the same item set.
func indexBuilders() map[string]func([]Item) SpatialIndex {
	return map[string]func([]Item) SpatialIndex{
		"rtree":  func(items []Item) SpatialIndex { return NewRTreeBulk(items) },
		"linear": func(items []Item) SpatialIndex { return NewLinear(items) },
	}
}

func TestIndexesAgreeWithLinearScan(t *testing.T) {
	items := makeItems(500, 100, 1)
	reference := NewLinear(items)
	queries := []geom.Envelope{
		{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},     // everything
		{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20},     // window
		{MinX: 50, MinY: 50, MaxX: 50, MaxY: 50},     // point query
		{MinX: 200, MinY: 200, MaxX: 210, MaxY: 210}, // outside
	}
	for name, build := range indexBuilders() {
		idx := build(items)
		if idx.Len() != len(items) {
			t.Errorf("%s: Len = %d, want %d", name, idx.Len(), len(items))
		}
		for _, q := range queries {
			want := sortedIDs(reference.Search(q, nil))
			got := sortedIDs(idx.Search(q, nil))
			if !equalIDs(got, want) {
				t.Errorf("%s: Search(%+v) returned %d items, want %d", name, q, len(got), len(want))
			}
		}
	}
}

func TestIndexesAgreeOnDistanceSearch(t *testing.T) {
	items := makeItems(300, 100, 2)
	reference := NewLinear(items)
	q := geom.Envelope{MinX: 40, MinY: 40, MaxX: 45, MaxY: 45}
	for _, d := range []float64{0, 1, 5, 25, 1000} {
		want := sortedIDs(reference.SearchDistance(q, d, nil))
		for name, build := range indexBuilders() {
			got := sortedIDs(build(items).SearchDistance(q, d, nil))
			if !equalIDs(got, want) {
				t.Errorf("%s: SearchDistance(d=%v) = %d items, want %d", name, d, len(got), len(want))
			}
		}
	}
}

func TestRTreeEmpty(t *testing.T) {
	tr := &RTree{}
	if got := tr.Search(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, nil); len(got) != 0 {
		t.Error("empty tree search should return nothing")
	}
	if got := tr.SearchDistance(geom.Envelope{}, 1, nil); len(got) != 0 {
		t.Error("empty tree distance search should return nothing")
	}
	if tr.Height() != 0 {
		t.Error("empty tree height should be 0")
	}
	bulk := NewRTreeBulk(nil)
	if bulk.Len() != 0 {
		t.Error("bulk empty tree Len != 0")
	}
}

func TestRTreeBulkBalance(t *testing.T) {
	items := makeItems(1000, 200, 3)
	tr := NewRTreeBulk(items)
	// STR over 1000 items with fanout 9: ceil(log9(1000/9)) + 1 levels.
	if h := tr.Height(); h < 2 || h > 4 {
		t.Errorf("bulk tree height = %d, want a balanced 2-4", h)
	}
	assertInvariants(t, tr.root, tr.Height())
}

// TestRTreeBulkInvariants builds trees on both sides of each STR
// packing boundary (one leaf, one full level, one item more) and checks
// that the tree holds every item exactly once, is as shallow as the
// fan-out allows and keeps the structural invariants.
func TestRTreeBulkInvariants(t *testing.T) {
	for _, n := range []int{1, 9, 10, 81, 82, 600, 729, 730} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tr := NewRTreeBulk(makeItems(n, 100, int64(n)))
			if tr.Len() != n {
				t.Errorf("Len = %d, want %d", tr.Len(), n)
			}
			wantHeight := 1
			for capacity := rtreeMaxEntries; capacity < n; capacity *= rtreeMaxEntries {
				wantHeight++
			}
			if h := tr.Height(); h != wantHeight {
				t.Errorf("Height = %d, want %d", h, wantHeight)
			}
			assertInvariants(t, tr.root, tr.Height())
			var ids []int
			var collect func(n *rtreeNode)
			collect = func(n *rtreeNode) {
				for _, it := range n.items {
					ids = append(ids, it.ID)
				}
				for _, c := range n.children {
					collect(c)
				}
			}
			collect(tr.root)
			sort.Ints(ids)
			for i, id := range ids {
				if id != i {
					t.Fatalf("sorted leaf IDs hold %d at position %d, want each of 0..%d once", id, i, n-1)
				}
			}
			if len(ids) != n {
				t.Errorf("leaves hold %d items, want %d", len(ids), n)
			}
		})
	}
}

// assertInvariants checks that every node's envelope covers its payload,
// that every node holds between one and rtreeMaxEntries entries and that
// all leaves are at the same depth.
func assertInvariants(t *testing.T, n *rtreeNode, wantLeafDepth int) {
	t.Helper()
	var walk func(n *rtreeNode, depth int)
	walk = func(n *rtreeNode, depth int) {
		if entries := len(n.items) + len(n.children); entries > rtreeMaxEntries {
			t.Errorf("node at depth %d holds %d entries, want at most %d", depth, entries, rtreeMaxEntries)
		}
		if n.leaf {
			if depth != wantLeafDepth {
				t.Errorf("leaf at depth %d, want %d", depth, wantLeafDepth)
			}
			if len(n.items) == 0 {
				t.Error("leaf with no items")
			}
			for _, it := range n.items {
				if !n.env.Contains(it.Env) {
					t.Errorf("leaf envelope does not cover item %d", it.ID)
				}
			}
			return
		}
		if len(n.children) == 0 {
			t.Error("internal node with no children")
			return
		}
		for _, c := range n.children {
			if !n.env.Contains(c.env) {
				t.Error("node envelope does not cover child")
			}
			walk(c, depth+1)
		}
	}
	walk(n, 1)
}

func TestQuickIndexEquivalence(t *testing.T) {
	// Property: for random item sets and random query windows, the
	// R-tree returns exactly the linear-scan result.
	f := func(seed int64, qx, qy, qw, qh uint8) bool {
		items := makeItems(80, 50, seed)
		q := geom.Envelope{
			MinX: float64(qx % 50), MinY: float64(qy % 50),
			MaxX: float64(qx%50) + float64(qw%20), MaxY: float64(qy%50) + float64(qh%20),
		}
		want := sortedIDs(NewLinear(items).Search(q, nil))
		rt := sortedIDs(NewRTreeBulk(items).Search(q, nil))
		return equalIDs(rt, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickDistanceEquivalence(t *testing.T) {
	// Property: for random item sets, query windows and thresholds, the
	// R-tree's distance search returns exactly the linear-scan result.
	f := func(seed int64, qx, qy, qw, qh, d uint8) bool {
		items := makeItems(80, 50, seed)
		q := geom.Envelope{
			MinX: float64(qx % 50), MinY: float64(qy % 50),
			MaxX: float64(qx%50) + float64(qw%20), MaxY: float64(qy%50) + float64(qh%20),
		}
		dist := float64(d%30) / 3
		want := sortedIDs(NewLinear(items).SearchDistance(q, dist, nil))
		rt := sortedIDs(NewRTreeBulk(items).SearchDistance(q, dist, nil))
		return equalIDs(rt, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSearchAppendsToDst: both queries append to the caller's slice and
// leave what it already holds in place, so callers can reuse one buffer.
func TestSearchAppendsToDst(t *testing.T) {
	items := makeItems(200, 100, 5)
	q := geom.Envelope{MinX: 20, MinY: 20, MaxX: 40, MaxY: 40}
	wantWindow := sortedIDs(NewLinear(items).Search(q, nil))
	wantDistance := sortedIDs(NewLinear(items).SearchDistance(q, 3, nil))
	for name, build := range indexBuilders() {
		t.Run(name, func(t *testing.T) {
			idx := build(items)
			for _, c := range []struct {
				query string
				run   func(dst []int) []int
				want  []int
			}{
				{"Search", func(dst []int) []int { return idx.Search(q, dst) }, wantWindow},
				{"SearchDistance", func(dst []int) []int { return idx.SearchDistance(q, 3, dst) }, wantDistance},
			} {
				got := c.run([]int{-1, -2})
				if len(got) < 2 || got[0] != -1 || got[1] != -2 {
					t.Fatalf("%s overwrote the prefix of dst: %v", c.query, got)
				}
				if rest := sortedIDs(got[2:]); !equalIDs(rest, c.want) {
					t.Errorf("%s appended %d IDs, want %d", c.query, len(rest), len(c.want))
				}
			}
		})
	}
}

// TestEmptyEnvelopeItemsNeverMatch: an item with an empty envelope (an
// EMPTY geometry) is counted by Len but no window or distance query
// returns it, and it does not hide the items stored beside it.
func TestEmptyEnvelopeItemsNeverMatch(t *testing.T) {
	solid := makeItems(60, 50, 6)
	items := append([]Item{}, solid...)
	for id := 1000; id < 1005; id++ {
		items = append(items, Item{Env: geom.EmptyEnvelope(), ID: id})
	}
	world := geom.Envelope{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}
	q := geom.Envelope{MinX: 10, MinY: 10, MaxX: 30, MaxY: 30}
	reference := NewLinear(solid)
	for name, build := range indexBuilders() {
		t.Run(name, func(t *testing.T) {
			idx := build(items)
			if idx.Len() != len(items) {
				t.Errorf("Len = %d, want %d", idx.Len(), len(items))
			}
			checks := []struct {
				query     string
				got, want []int
			}{
				{"Search(world)", idx.Search(world, nil), reference.Search(world, nil)},
				{"Search(window)", idx.Search(q, nil), reference.Search(q, nil)},
				{"SearchDistance(window, 0)", idx.SearchDistance(q, 0, nil), reference.SearchDistance(q, 0, nil)},
				{"SearchDistance(window, 1e9)", idx.SearchDistance(q, 1e9, nil), reference.SearchDistance(q, 1e9, nil)},
			}
			for _, c := range checks {
				if got, want := sortedIDs(c.got), sortedIDs(c.want); !equalIDs(got, want) {
					t.Errorf("%s = %d IDs %v, want the %d solid ones", c.query, len(got), got, len(want))
				}
			}
			onlyEmpty := build(items[len(solid):])
			if got := onlyEmpty.Search(world, nil); len(got) != 0 {
				t.Errorf("index of empty envelopes: Search(world) = %v", got)
			}
			if got := onlyEmpty.SearchDistance(q, 1e9, nil); len(got) != 0 {
				t.Errorf("index of empty envelopes: SearchDistance = %v", got)
			}
		})
	}
}
