package index

import (
	"testing"

	"repro/internal/geom"
)

// The co-location neighborhood materialization leans on SearchDistance
// edges harder than extraction does: zero-distance thresholds (only
// coincident instances are neighbors), piles of exactly coincident
// points, and empty layers. These tests pin those edges on every index
// implementation.

func pointItems(coords ...float64) []Item {
	var items []Item
	for i := 0; i+1 < len(coords); i += 2 {
		items = append(items, Item{Env: geom.Pt(coords[i], coords[i+1]).Envelope(), ID: i / 2})
	}
	return items
}

func degenerateBuilders() map[string]func([]Item) SpatialIndex {
	return map[string]func([]Item) SpatialIndex{
		"rtree":  func(items []Item) SpatialIndex { return NewRTreeBulk(items) },
		"linear": func(items []Item) SpatialIndex { return NewLinear(items) },
	}
}

// TestSearchDistanceZeroThreshold: with d=0 only items whose envelope
// touches the query are neighbors — exactly coincident points qualify,
// anything strictly apart does not.
func TestSearchDistanceZeroThreshold(t *testing.T) {
	items := pointItems(
		5, 5, // 0: coincident with the query point
		5, 5, // 1: duplicate of it
		5, 5.000001, // 2: strictly apart
		9, 9, // 3: far
	)
	q := geom.Pt(5, 5).Envelope()
	for name, build := range degenerateBuilders() {
		got := sortedIDs(build(items).SearchDistance(q, 0, nil))
		if !equalIDs(got, []int{0, 1}) {
			t.Errorf("%s: SearchDistance(d=0) = %v, want [0 1]", name, got)
		}
	}
}

// TestSearchDistanceExactBoundary: an item at exactly distance d is
// included (the predicate is <=, matching the engine's refinement).
func TestSearchDistanceExactBoundary(t *testing.T) {
	items := pointItems(
		0, 0, // 0: at distance 3 from (3,0)... query is (0,0); item 1 at 3.
	)
	items = append(items, Item{Env: geom.Pt(3, 0).Envelope(), ID: 1})
	items = append(items, Item{Env: geom.Pt(3.0000001, 0).Envelope(), ID: 2})
	q := geom.Pt(0, 0).Envelope()
	for name, build := range degenerateBuilders() {
		got := sortedIDs(build(items).SearchDistance(q, 3, nil))
		if !equalIDs(got, []int{0, 1}) {
			t.Errorf("%s: SearchDistance(d=3) = %v, want [0 1]", name, got)
		}
	}
}

// TestCoincidentPointPile: hundreds of items at one location must all
// come back from distance search.
func TestCoincidentPointPile(t *testing.T) {
	const n = 300
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Env: geom.Pt(7, 7).Envelope(), ID: i}
	}
	q := geom.Pt(7, 7).Envelope()
	for name, build := range degenerateBuilders() {
		if got := build(items).SearchDistance(q, 0, nil); len(got) != n {
			t.Errorf("%s: SearchDistance over pile returned %d, want %d", name, len(got), n)
		}
	}
}

// TestSearchDistanceEmptyIndex: an empty layer's index answers every
// distance query with nothing, at any threshold.
func TestSearchDistanceEmptyIndex(t *testing.T) {
	q := geom.Pt(1, 2).Envelope()
	for name, build := range degenerateBuilders() {
		idx := build(nil)
		for _, d := range []float64{0, 1, 1e9} {
			if got := idx.SearchDistance(q, d, nil); len(got) != 0 {
				t.Errorf("%s: empty index SearchDistance(d=%v) = %v", name, d, got)
			}
		}
	}
}
