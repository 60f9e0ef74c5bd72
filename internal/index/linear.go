package index

import "repro/internal/geom"

// Linear is the nested-loop oracle: a flat item list scanned on every
// query. It answers exactly what the R-tree answers and is the index
// behind transact.NoIndex, which the equivalence tests and the
// spatial-join benchmark compare the R-tree against.
type Linear struct {
	items []Item
}

// NewLinear creates a Linear scan index over the items.
func NewLinear(items []Item) *Linear {
	return &Linear{items: append([]Item{}, items...)}
}

// Len implements SpatialIndex.
func (l *Linear) Len() int { return len(l.items) }

// Search implements SpatialIndex.
func (l *Linear) Search(query geom.Envelope, dst []int) []int {
	for _, it := range l.items {
		if it.Env.Intersects(query) {
			dst = append(dst, it.ID)
		}
	}
	return dst
}

// SearchDistance implements SpatialIndex. It keeps the literal
// Distance(query) <= d, the reference geom.Envelope.WithinDistance is
// checked against.
func (l *Linear) SearchDistance(query geom.Envelope, d float64, dst []int) []int {
	for _, it := range l.items {
		if it.Env.Distance(query) <= d {
			dst = append(dst, it.ID)
		}
	}
	return dst
}
