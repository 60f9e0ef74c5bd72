// Package taxonomy implements concept hierarchies over feature types and
// multi-level predicate generalisation — the "general granularity levels"
// the paper mines at (Section 1, citing Han's multi-level mining [12]).
//
// A Hierarchy maps feature types to parents ("slum" -> "settlement" ->
// "landuse"). Generalising a transaction table rewrites each spatial
// predicate's feature type to its ancestor at a chosen level, so
// "contains_slum" and "contains_favela" can both become
// "contains_settlement" and support accumulates across siblings. The KC+
// same-feature filter then operates at the generalised granularity, which
// is exactly where the paper's meaningless-pattern problem lives.
package taxonomy

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/qsr"
)

// Hierarchy is a forest of feature-type concepts: each type may have one
// parent. Types without an entry are roots.
type Hierarchy struct {
	parent map[string]string
}

// NewHierarchy creates an empty hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{parent: make(map[string]string)}
}

// Add declares parent(child) = parent. It returns an error when the edge
// would create a cycle or the child already has a different parent.
func (h *Hierarchy) Add(child, parent string) error {
	if child == parent {
		return fmt.Errorf("taxonomy: %q cannot be its own parent", child)
	}
	if existing, ok := h.parent[child]; ok && existing != parent {
		return fmt.Errorf("taxonomy: %q already has parent %q", child, existing)
	}
	// Walk up from the proposed parent; meeting the child means a cycle.
	for cur := parent; ; {
		next, ok := h.parent[cur]
		if !ok {
			break
		}
		if next == child {
			return fmt.Errorf("taxonomy: adding %q -> %q creates a cycle", child, parent)
		}
		cur = next
	}
	h.parent[child] = parent
	return nil
}

// Ancestors returns the chain from t's parent up to its root, nearest
// first.
func (h *Hierarchy) Ancestors(t string) []string {
	var out []string
	for {
		p, ok := h.parent[t]
		if !ok {
			return out
		}
		out = append(out, p)
		t = p
	}
}

// AtLevel returns the ancestor of t whose depth from the root equals
// level (level 0 is the root; higher levels are more specific). When t is
// already at or above the requested level it is returned unchanged.
func (h *Hierarchy) AtLevel(t string, level int) string {
	chain := append([]string{t}, h.Ancestors(t)...)
	// chain[i] has depth len(chain)-1-i.
	idx := len(chain) - 1 - level
	if idx <= 0 {
		return t
	}
	return chain[idx]
}

// GeneralizeTable rewrites every spatial predicate of the table to the
// feature-type granularity of the given level (0 = roots). Non-spatial
// items and predicates over types outside the hierarchy pass through
// unchanged. Items are re-normalised, so predicates that collapse onto
// the same generalised predicate merge.
func GeneralizeTable(t *dataset.Table, h *Hierarchy, level int) *dataset.Table {
	rows := make([]dataset.Transaction, len(t.Transactions))
	for i, tx := range t.Transactions {
		items := make([]string, len(tx.Items))
		for j, it := range tx.Items {
			items[j] = generalizeItem(it, h, level)
		}
		rows[i] = dataset.Transaction{RefID: tx.RefID, Items: items}
	}
	return dataset.NewTable(rows)
}

// generalizeItem rewrites one item if it is a parseable spatial
// predicate.
func generalizeItem(item string, h *Hierarchy, level int) string {
	p, err := qsr.ParsePredicate(item)
	if err != nil {
		return item
	}
	gen := h.AtLevel(p.FeatureType, level)
	if gen == p.FeatureType {
		return item
	}
	return qsr.Predicate{Relation: p.Relation, FeatureType: gen}.String()
}
