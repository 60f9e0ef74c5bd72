package index

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/geom"
	"repro/internal/par"
)

// Layer is one side of the filter→refine spatial join that predicate
// extraction, its delta path and co-location mining run: a layer's
// geometries, prepared for the refine stage or not, the index over
// their envelopes, and the largest Envelope.Slack among them. Within,
// Join and Touching are the join's candidate filters; each caller
// refines the candidates itself. A Layer is immutable and safe for
// concurrent queries.
type Layer struct {
	// Prepared[j] is geometry j prepared for the refine stage; nil when
	// the caller refines raw geometries.
	Prepared []*geom.Prepared
	idx      SpatialIndex
	// root is the node Join walks: the R-tree's root, or one leaf
	// holding every item of a Linear layer, so that the nested loop is
	// the join's degenerate case. nil when the layer is empty.
	root  *rtreeNode
	slack float64
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
		lin := NewLinear(items)
		l.idx = lin
		if n > 0 {
			l.root = &rtreeNode{leaf: true, items: lin.items}
			l.root.recomputeEnv()
		}
	} else {
		t := NewRTreeBulk(items)
		l.idx, l.root = t, t.root
	}
	return l
}

// reach is the reach rule of the distance filters, which Within and
// Join share: a geometry whose envelope is env can lie within d only of
// the geometries of l whose envelopes lie within d of reach(env).
// geom.Distance puts geometries whose Eps-grown envelopes meet at 0,
// and may measure a pair a few ulps below its envelopes' distance, so
// env is grown by its own Envelope.Slack plus the layer's largest.
func (l *Layer) reach(env geom.Envelope) geom.Envelope {
	return env.Buffer(env.Slack() + l.slack)
}

// Within returns, in ascending order and in buf's storage, the IDs of
// every geometry that can lie within distance d of a geometry whose
// envelope is env: those whose envelopes lie within d of reach(env).
// Every geometry at Distance <= d is returned, and some farther ones
// may be.
func (l *Layer) Within(env geom.Envelope, d float64, buf []int) []int {
	ids := l.idx.SearchDistance(l.reach(env), d, buf[:0])
	slices.Sort(ids)
	return ids
}

// Pair is one candidate pair of a Join: A identifies a geometry of the
// receiving layer, B one of the layer joined to it.
type Pair struct{ A, B int }

// Join appends to dst, sorted by (A, B), exactly the pairs (a, b) with
// b among o.Within(envelope of a, d), and returns the extended slice.
// It walks both layers' trees together (a synchronized traversal)
// instead of querying o once per geometry of l. A node pair is pruned
// when, with l's node grown by both layers' largest slack, the two
// envelopes lie more than d apart along one axis: the grown node covers
// the reach of every geometry below it, and Envelope.WithinDistance
// passes no pair that lies more than d apart along one axis. The item
// pairs that remain take Within's own test.
//
// With workers > 1 the walk starts from the subtrees of l at the
// shallowest level of its tree holding four per worker, claimed by
// that many workers of a par pool that stops between subtrees once
// ctx is done. The result does not depend on workers; the error is
// ctx's, when it ends the walk.
func (l *Layer) Join(ctx context.Context, o *Layer, d float64, workers int, dst []Pair) ([]Pair, error) {
	if l.root == nil || o.root == nil {
		return dst, ctx.Err()
	}
	start := len(dst)
	grow := l.slack + o.slack
	// An STR tree is balanced: a level is all leaves or none.
	parts := []*rtreeNode{l.root}
	for workers > 1 && len(parts) < 4*workers && !parts[0].leaf {
		var below []*rtreeNode
		for _, n := range parts {
			below = append(below, n.children...)
		}
		parts = below
	}
	// Part 0 appends to dst itself, so one worker copies nothing.
	found := make([][]Pair, len(parts))
	found[0] = dst
	err := par.For(ctx, len(parts), par.Workers(workers, len(parts)), func(_, k int) {
		if apart(parts[k].env.Buffer(grow), o.root.env, d) {
			return
		}
		j := joiner{o: o, grow: grow, d: d, reach: make([]geom.Envelope, 0, rtreeMaxEntries)}
		found[k] = j.nodes(parts[k], o.root, found[k])
	})
	if err != nil {
		return dst, err
	}
	rest := 0
	for _, f := range found[1:] {
		rest += len(f)
	}
	dst = slices.Grow(found[0], rest)
	for _, f := range found[1:] {
		dst = append(dst, f...)
	}
	sortPairs(dst[start:], l.idx.Len())
	return dst, nil
}

// joiner carries one Join's fixed arguments down the traversal.
type joiner struct {
	o    *Layer
	grow float64 // both layers' largest slack
	d    float64
	// reach holds reach(a) of each item a of the receiving layer's leaf
	// being joined, computed once per leaf.
	reach []geom.Envelope
}

// nodes appends the pairs under the node pair (na of the receiving
// layer, nb of o), which is not apart: it splits the node with the
// larger envelope, or the internal one, testing each child pair before
// descending, until na is a leaf.
func (j *joiner) nodes(na, nb *rtreeNode, dst []Pair) []Pair {
	switch {
	case na.leaf:
		j.reach = j.reach[:0]
		for _, a := range na.items {
			j.reach = append(j.reach, j.o.reach(a.Env))
		}
		return j.leaf(na, na.env.Buffer(j.grow), nb, dst)
	case nb.leaf || na.env.Perimeter() >= nb.env.Perimeter():
		for _, c := range na.children {
			if !apart(c.env.Buffer(j.grow), nb.env, j.d) {
				dst = j.nodes(c, nb, dst)
			}
		}
	default:
		grown := na.env.Buffer(j.grow)
		for _, c := range nb.children {
			if !apart(grown, c.env, j.d) {
				dst = j.nodes(na, c, dst)
			}
		}
	}
	return dst
}

// leaf appends the pairs between the leaf na, whose envelope grown by
// both slacks is grown and whose items' reach is in j.reach, and the
// subtree under nb, which is not apart from it.
func (j *joiner) leaf(na *rtreeNode, grown geom.Envelope, nb *rtreeNode, dst []Pair) []Pair {
	if !nb.leaf {
		for _, c := range nb.children {
			if !apart(grown, c.env, j.d) {
				dst = j.leaf(na, grown, c, dst)
			}
		}
		return dst
	}
	for k, a := range na.items {
		q := j.reach[k]
		if apart(q, nb.env, j.d) {
			continue
		}
		for _, b := range nb.items {
			if b.Env.WithinDistance(q, j.d) {
				dst = append(dst, Pair{a.ID, b.ID})
			}
		}
	}
	return dst
}

// apart reports whether a and b lie more than d apart along one axis.
// Then every envelope inside a lies more than d from every envelope
// inside b, since its axis gap can only be larger.
func apart(a, b geom.Envelope, d float64) bool {
	dx, dy := a.AxisGaps(b)
	return dx > d || dy > d
}

// sortPairs orders ps, whose As all lie in [0, n), by (A, B) in time
// linear in len(ps)+n: an in-place counting sort gathers each A's pairs
// in ascending A, then each A's few Bs are sorted.
func sortPairs(ps []Pair, n int) {
	bounds := make([]int32, 2*n+1)
	start, next := bounds[:n+1], bounds[n+1:]
	for _, p := range ps {
		start[p.A+1]++
	}
	for a := range n {
		start[a+1] += start[a]
	}
	copy(next, start)
	for a := range n {
		for i := next[a]; i < start[a+1]; i = next[a] {
			// Carry the pair at i to its A's next free slot, taking the
			// pair found there, until one that belongs at i turns up.
			p := ps[i]
			for p.A != a {
				k := next[p.A]
				next[p.A]++
				ps[k], p = p, ps[k]
			}
			ps[i] = p
			next[a]++
		}
	}
	for a := range n {
		if run := ps[start[a]:start[a+1]]; len(run) > 1 {
			slices.SortFunc(run, func(x, y Pair) int { return cmp.Compare(x.B, y.B) })
		}
	}
}

// Touching returns, in ascending order and in buf's storage, the IDs of
// every geometry whose envelope meets env grown by geom.Eps, the
// tolerance within which topological relations count contact.
func (l *Layer) Touching(env geom.Envelope, buf []int) []int {
	ids := l.idx.Search(env.Buffer(geom.Eps), buf[:0])
	slices.Sort(ids)
	return ids
}
