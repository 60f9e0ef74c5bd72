package index

import (
	"slices"

	"repro/internal/geom"
)

// Layer is one side of the filter→refine spatial join that predicate
// extraction, its delta path and co-location mining run: a layer's
// geometries, prepared for the refine stage or not, the index over
// their envelopes, and the largest Envelope.Slack among them. Within
// and Touching are the join's candidate filters; each caller refines
// the candidates itself. A Layer is immutable and safe for concurrent
// queries.
type Layer struct {
	// Prepared[j] is geometry j prepared for the refine stage; nil when
	// the caller refines raw geometries.
	Prepared []*geom.Prepared
	idx      SpatialIndex
	slack    float64
}

// NewLayer builds the join side over n geometries, identified by their
// position 0..n-1. prep, when non-nil, holds the n geometries prepared
// and keys the index on their cached envelopes; otherwise env(j)
// returns geometry j's envelope. linear selects the Linear nested-loop
// oracle in place of the R-tree.
func NewLayer(n int, env func(j int) geom.Envelope, prep []*geom.Prepared, linear bool) *Layer {
	l := &Layer{Prepared: prep}
	items := make([]Item, n)
	for j := range items {
		var e geom.Envelope
		if prep != nil {
			e = prep[j].Envelope()
		} else {
			e = env(j)
		}
		items[j] = Item{Env: e, ID: j}
		// An empty envelope is never within any distance.
		if !e.IsEmpty() {
			l.slack = max(l.slack, e.Slack())
		}
	}
	if linear {
		l.idx = NewLinear(items)
	} else {
		l.idx = NewRTreeBulk(items)
	}
	return l
}

// Within returns, in ascending order and in buf's storage, the IDs of
// every geometry that can lie within distance d of a geometry whose
// envelope is env. geom.Distance puts geometries whose Eps-grown
// envelopes meet at 0, and may measure a pair a few ulps below its
// envelopes' distance, so env is grown by its own Envelope.Slack plus
// the layer's largest before the envelope test: every geometry at
// Distance <= d is returned, and some farther ones may be.
func (l *Layer) Within(env geom.Envelope, d float64, buf []int) []int {
	ids := l.idx.SearchDistance(env.Buffer(env.Slack()+l.slack), d, buf[:0])
	slices.Sort(ids)
	return ids
}

// Touching returns, in ascending order and in buf's storage, the IDs of
// every geometry whose envelope meets env grown by geom.Eps, the
// tolerance within which topological relations count contact.
func (l *Layer) Touching(env geom.Envelope, buf []int) []int {
	ids := l.idx.Search(env.Buffer(geom.Eps), buf[:0])
	slices.Sort(ids)
	return ids
}
