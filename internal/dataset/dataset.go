// Package dataset models the spatial data layer the mining pipeline
// consumes: feature types, features with geometry and attributes, layers,
// and the full spatial dataset of one reference layer (the "transaction"
// objects, e.g. districts) plus relevant layers (slums, schools, ...).
// It also ships the paper's Table 1 Porto Alegre sample, both as a ready
// transaction table and as a crafted geometric scene whose predicate
// extraction reproduces that table exactly.
package dataset

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// Value is a non-spatial attribute value. Only strings and float64 occur;
// numeric attributes are discretised before mining.
type Value interface{}

// Feature is one spatial object: an identifier unique within its layer, a
// geometry, and optional non-spatial attributes.
type Feature struct {
	ID       string
	Geometry geom.Geometry
	Attrs    map[string]Value
}

// Attr returns the named attribute and whether it exists.
func (f *Feature) Attr(name string) (Value, bool) {
	v, ok := f.Attrs[name]
	return v, ok
}

// Layer is a homogeneous collection of features of one feature type
// ("district", "slum", "school", ...).
type Layer struct {
	// Type is the feature-type name used in predicates.
	Type string
	// Features are the members of the layer.
	Features []Feature
}

// NewLayer constructs an empty layer of the given feature type.
func NewLayer(featureType string) *Layer {
	return &Layer{Type: featureType}
}

// Add appends a feature and returns the layer for chaining.
func (l *Layer) Add(f Feature) *Layer {
	l.Features = append(l.Features, f)
	return l
}

// AddGeometry appends a feature with an auto-generated ID.
func (l *Layer) AddGeometry(g geom.Geometry) *Layer {
	return l.Add(Feature{
		ID:       fmt.Sprintf("%s%d", l.Type, len(l.Features)),
		Geometry: g,
	})
}

// Len reports the number of features.
func (l *Layer) Len() int { return len(l.Features) }

// Envelope returns the bounding box of the whole layer.
func (l *Layer) Envelope() geom.Envelope {
	e := geom.EmptyEnvelope()
	for i := range l.Features {
		if l.Features[i].Geometry != nil {
			e = e.Union(l.Features[i].Geometry.Envelope())
		}
	}
	return e
}

// Validate checks all feature geometries; see geom.Validate.
func (l *Layer) Validate() error {
	for i := range l.Features {
		f := &l.Features[i]
		if f.Geometry == nil {
			return fmt.Errorf("dataset: layer %q feature %q has no geometry", l.Type, f.ID)
		}
		if err := geom.Validate(f.Geometry); err != nil {
			return fmt.Errorf("dataset: layer %q feature %q: %w", l.Type, f.ID, err)
		}
	}
	return nil
}

// Dataset is a complete mining input: the reference layer whose features
// become transactions, the relevant layers whose relationships become
// spatial predicates, and the names of the reference attributes to carry
// into the transactions as non-spatial items.
type Dataset struct {
	// Reference is the target feature type (the paper's districts).
	Reference *Layer
	// Relevant are the related feature types (slums, schools, ...).
	Relevant []*Layer
	// NonSpatialAttrs names the Reference attributes included as items.
	NonSpatialAttrs []string
}

// Validate checks every layer and structural consistency (distinct layer
// type names, reference layer present).
func (d *Dataset) Validate() error {
	if d.Reference == nil {
		return fmt.Errorf("dataset: no reference layer")
	}
	if err := d.Reference.Validate(); err != nil {
		return err
	}
	seen := map[string]bool{d.Reference.Type: true}
	for _, l := range d.Relevant {
		if seen[l.Type] {
			return fmt.Errorf("dataset: duplicate layer type %q", l.Type)
		}
		seen[l.Type] = true
		if err := l.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Transaction is one mined row: the reference feature ID plus its item
// strings (non-spatial "attr=value" items and spatial "relation_type"
// predicates). Items are kept sorted and deduplicated.
type Transaction struct {
	RefID string
	Items []string
}

// Table is an ordered set of transactions — the direct input to the
// mining algorithms.
type Table struct {
	Transactions []Transaction
}

// NewTable builds a table from raw rows, normalising each row's items
// (sorted, deduplicated).
func NewTable(rows []Transaction) *Table {
	t := &Table{Transactions: make([]Transaction, len(rows))}
	for i, r := range rows {
		t.Transactions[i] = Transaction{RefID: r.RefID, Items: NormalizeItems(r.Items)}
	}
	return t
}

// NormalizeItems returns a sorted copy of items with duplicates removed.
func NormalizeItems(items []string) []string {
	out := append([]string{}, items...)
	sort.Strings(out)
	j := 0
	for i, s := range out {
		if i == 0 || s != out[j-1] {
			out[j] = s
			j++
		}
	}
	return out[:j]
}

// Len reports the number of transactions.
func (t *Table) Len() int { return len(t.Transactions) }

// Items returns the distinct items across all transactions, sorted.
func (t *Table) Items() []string {
	set := map[string]struct{}{}
	for _, tx := range t.Transactions {
		for _, it := range tx.Items {
			set[it] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for it := range set {
		out = append(out, it)
	}
	sort.Strings(out)
	return out
}

// SupportCount returns how many transactions contain every item in the
// given set.
func (t *Table) SupportCount(items []string) int {
	count := 0
	for _, tx := range t.Transactions {
		if containsAll(tx.Items, items) {
			count++
		}
	}
	return count
}

// containsAll reports whether sorted haystack contains every needle.
func containsAll(haystack, needles []string) bool {
	for _, n := range needles {
		i := sort.SearchStrings(haystack, n)
		if i >= len(haystack) || haystack[i] != n {
			return false
		}
	}
	return true
}
