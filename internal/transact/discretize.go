package transact

import (
	"fmt"
	"sort"
)

// Discretizer fits cut points over a numeric column and labels values.
// Implementations must be deterministic: mining results depend on labels.
type Discretizer interface {
	// Fit computes cut points from the column values.
	Fit(values []float64) (*FittedDiscretizer, error)
}

// FittedDiscretizer holds fitted cut points and bin labels. A value v maps
// to bin i when v <= Cuts[i] (and to the last bin beyond all cuts).
type FittedDiscretizer struct {
	// Cuts are the len(Labels)-1 ascending upper bounds of all bins but
	// the last.
	Cuts []float64
	// Labels name the bins ("low", "medium", "high" or "b0".."bn").
	Labels []string
}

// Label maps a value to its bin label.
func (f *FittedDiscretizer) Label(v float64) string {
	return f.Labels[f.bin(v)]
}

// bin maps a value to the index of its bin.
func (f *FittedDiscretizer) bin(v float64) int {
	for i, c := range f.Cuts {
		if v <= c {
			return i
		}
	}
	return len(f.Labels) - 1
}

// defaultLabels returns human-friendly names for small bin counts and
// generated names otherwise.
func defaultLabels(bins int) []string {
	switch bins {
	case 2:
		return []string{"low", "high"}
	case 3:
		return []string{"low", "medium", "high"}
	}
	out := make([]string, bins)
	for i := range out {
		out[i] = fmt.Sprintf("b%d", i)
	}
	return out
}

// EqualWidth discretises into bins of equal value range.
type EqualWidth struct {
	Bins int
}

// Fit implements Discretizer.
func (e EqualWidth) Fit(values []float64) (*FittedDiscretizer, error) {
	if e.Bins < 2 {
		return nil, fmt.Errorf("transact: equal-width bins must be >= 2, got %d", e.Bins)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("transact: cannot fit on an empty column")
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	cuts := make([]float64, e.Bins-1)
	width := (hi - lo) / float64(e.Bins)
	for i := range cuts {
		cuts[i] = lo + width*float64(i+1)
	}
	return &FittedDiscretizer{Cuts: cuts, Labels: defaultLabels(e.Bins)}, nil
}

// EqualFrequency discretises into bins holding (approximately) the same
// number of column values.
type EqualFrequency struct {
	Bins int
}

// Fit implements Discretizer.
func (e EqualFrequency) Fit(values []float64) (*FittedDiscretizer, error) {
	if e.Bins < 2 {
		return nil, fmt.Errorf("transact: equal-frequency bins must be >= 2, got %d", e.Bins)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("transact: cannot fit on an empty column")
	}
	sorted := append([]float64{}, values...)
	sort.Float64s(sorted)
	cuts := make([]float64, e.Bins-1)
	for i := range cuts {
		idx := (i + 1) * len(sorted) / e.Bins
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		cuts[i] = sorted[idx]
	}
	return &FittedDiscretizer{Cuts: cuts, Labels: defaultLabels(e.Bins)}, nil
}

// Thresholds is a discretizer with explicit, pre-chosen cut points (domain
// knowledge: "murderRate > 3.2 per 1000 is high").
type Thresholds struct {
	Cuts   []float64
	Labels []string
}

// Fit implements Discretizer: the cuts are fixed, the column is ignored.
func (t Thresholds) Fit([]float64) (*FittedDiscretizer, error) {
	if len(t.Labels) != len(t.Cuts)+1 {
		return nil, fmt.Errorf("transact: thresholds need len(labels) == len(cuts)+1, got %d and %d",
			len(t.Labels), len(t.Cuts))
	}
	for i := 1; i < len(t.Cuts); i++ {
		if t.Cuts[i] <= t.Cuts[i-1] {
			return nil, fmt.Errorf("transact: threshold cuts must be strictly ascending")
		}
	}
	return &FittedDiscretizer{Cuts: t.Cuts, Labels: t.Labels}, nil
}

// DefaultDiscretizer is the tercile low/medium/high equal-frequency
// discretizer the examples use.
func DefaultDiscretizer() Discretizer { return EqualFrequency{Bins: 3} }
