package qsr

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/geom"
)

// RCC8 is a relation of the Region Connection Calculus, the standard
// qualitative spatial reasoning algebra over regions. The paper's
// topological vocabulary (Egenhofer 9-intersection relations) corresponds
// one-to-one to RCC8 for region pairs; this file provides the calculus
// side: conversion, converses, the full composition table, and a
// path-consistency (algebraic closure) solver for constraint networks —
// the reasoning machinery "qualitative spatial reasoning" refers to.
type RCC8 uint8

// The eight RCC8 base relations.
const (
	// DC: disconnected.
	DC RCC8 = iota
	// EC: externally connected (touching boundaries).
	EC
	// PO: partially overlapping.
	PO
	// EQ: equal.
	EQ
	// TPP: tangential proper part (inside, touching the boundary).
	TPP
	// NTPP: non-tangential proper part (strictly inside).
	NTPP
	// TPPi: inverse tangential proper part (covers).
	TPPi
	// NTPPi: inverse non-tangential proper part (contains).
	NTPPi

	numRCC8 = 8
)

// String implements fmt.Stringer.
func (r RCC8) String() string {
	switch r {
	case DC:
		return "DC"
	case EC:
		return "EC"
	case PO:
		return "PO"
	case EQ:
		return "EQ"
	case TPP:
		return "TPP"
	case NTPP:
		return "NTPP"
	case TPPi:
		return "TPPi"
	case NTPPi:
		return "NTPPi"
	}
	return fmt.Sprintf("qsr.RCC8(%d)", uint8(r))
}

// Converse returns the relation seen from the swapped operand order.
func (r RCC8) Converse() RCC8 {
	switch r {
	case TPP:
		return TPPi
	case TPPi:
		return TPP
	case NTPP:
		return NTPPi
	case NTPPi:
		return NTPP
	default:
		return r // DC, EC, PO, EQ are symmetric
	}
}

// ToRCC8 maps the paper's topological relation onto RCC8. ok is false for
// relations without a region-pair RCC8 counterpart (crosses and the
// non-topological families).
func ToRCC8(r Relation) (RCC8, bool) {
	switch r {
	case Disjoint:
		return DC, true
	case Touches:
		return EC, true
	case Overlaps:
		return PO, true
	case Equals:
		return EQ, true
	case CoveredBy:
		return TPP, true
	case Within:
		return NTPP, true
	case Covers:
		return TPPi, true
	case Contains:
		return NTPPi, true
	}
	return 0, false
}

// RCC8Of classifies two region geometries directly into RCC8. ok is
// false for empty operands or a non-region relation (crosses between
// mixed dimensions).
func RCC8Of(a, b geom.Geometry) (RCC8, bool) {
	rel, ok := Topological(a, b)
	if !ok {
		return 0, false
	}
	return ToRCC8(rel)
}

// RCC8Set is a disjunction of base relations, represented as a bitmask.
// The zero value is the empty (inconsistent) set.
type RCC8Set uint8

// Universal is the full disjunction (no information).
const Universal RCC8Set = (1 << numRCC8) - 1

// NewRCC8Set builds a set from base relations.
func NewRCC8Set(rs ...RCC8) RCC8Set {
	var s RCC8Set
	for _, r := range rs {
		s |= 1 << r
	}
	return s
}

// Has reports membership.
func (s RCC8Set) Has(r RCC8) bool { return s&(1<<r) != 0 }

// IsEmpty reports the inconsistent (empty) disjunction.
func (s RCC8Set) IsEmpty() bool { return s == 0 }

// Size returns the number of base relations in the disjunction.
func (s RCC8Set) Size() int { return bits.OnesCount8(uint8(s)) }

// Intersect returns the conjunction of two disjunctions.
func (s RCC8Set) Intersect(o RCC8Set) RCC8Set { return s & o }

// Union returns the disjunction of two disjunctions.
func (s RCC8Set) Union(o RCC8Set) RCC8Set { return s | o }

// Converse returns the converse of every member.
func (s RCC8Set) Converse() RCC8Set {
	var out RCC8Set
	for r := RCC8(0); r < numRCC8; r++ {
		if s.Has(r) {
			out |= 1 << r.Converse()
		}
	}
	return out
}

// Relations lists the member base relations in canonical order.
func (s RCC8Set) Relations() []RCC8 {
	out := make([]RCC8, 0, s.Size())
	for r := RCC8(0); r < numRCC8; r++ {
		if s.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// String renders "{EC, PO}" notation; "{}" for the empty set.
func (s RCC8Set) String() string {
	parts := make([]string, 0, s.Size())
	for _, r := range s.Relations() {
		parts = append(parts, r.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// rcc8Composition is the full RCC8 composition table:
// rcc8Composition[r][s] is the set of possible relations x(a, c) given
// r(a, b) and s(b, c). Source: Randell, Cui & Cohn (1992), in the
// standard presentation (e.g. Cohn et al. 1997, table 2).
var rcc8Composition = [numRCC8][numRCC8]RCC8Set{
	DC: {
		DC:    Universal,
		EC:    NewRCC8Set(DC, EC, PO, TPP, NTPP),
		PO:    NewRCC8Set(DC, EC, PO, TPP, NTPP),
		EQ:    NewRCC8Set(DC),
		TPP:   NewRCC8Set(DC, EC, PO, TPP, NTPP),
		NTPP:  NewRCC8Set(DC, EC, PO, TPP, NTPP),
		TPPi:  NewRCC8Set(DC),
		NTPPi: NewRCC8Set(DC),
	},
	EC: {
		DC:    NewRCC8Set(DC, EC, PO, TPPi, NTPPi),
		EC:    NewRCC8Set(DC, EC, PO, TPP, TPPi, EQ),
		PO:    NewRCC8Set(DC, EC, PO, TPP, NTPP),
		EQ:    NewRCC8Set(EC),
		TPP:   NewRCC8Set(EC, PO, TPP, NTPP),
		NTPP:  NewRCC8Set(PO, TPP, NTPP),
		TPPi:  NewRCC8Set(DC, EC),
		NTPPi: NewRCC8Set(DC),
	},
	PO: {
		DC:    NewRCC8Set(DC, EC, PO, TPPi, NTPPi),
		EC:    NewRCC8Set(DC, EC, PO, TPPi, NTPPi),
		PO:    Universal,
		EQ:    NewRCC8Set(PO),
		TPP:   NewRCC8Set(PO, TPP, NTPP),
		NTPP:  NewRCC8Set(PO, TPP, NTPP),
		TPPi:  NewRCC8Set(DC, EC, PO, TPPi, NTPPi),
		NTPPi: NewRCC8Set(DC, EC, PO, TPPi, NTPPi),
	},
	EQ: {
		DC:    NewRCC8Set(DC),
		EC:    NewRCC8Set(EC),
		PO:    NewRCC8Set(PO),
		EQ:    NewRCC8Set(EQ),
		TPP:   NewRCC8Set(TPP),
		NTPP:  NewRCC8Set(NTPP),
		TPPi:  NewRCC8Set(TPPi),
		NTPPi: NewRCC8Set(NTPPi),
	},
	TPP: {
		DC:    NewRCC8Set(DC),
		EC:    NewRCC8Set(DC, EC),
		PO:    NewRCC8Set(DC, EC, PO, TPP, NTPP),
		EQ:    NewRCC8Set(TPP),
		TPP:   NewRCC8Set(TPP, NTPP),
		NTPP:  NewRCC8Set(NTPP),
		TPPi:  NewRCC8Set(DC, EC, PO, TPP, TPPi, EQ),
		NTPPi: NewRCC8Set(DC, EC, PO, TPPi, NTPPi),
	},
	NTPP: {
		DC:    NewRCC8Set(DC),
		EC:    NewRCC8Set(DC),
		PO:    NewRCC8Set(DC, EC, PO, TPP, NTPP),
		EQ:    NewRCC8Set(NTPP),
		TPP:   NewRCC8Set(NTPP),
		NTPP:  NewRCC8Set(NTPP),
		TPPi:  NewRCC8Set(DC, EC, PO, TPP, NTPP),
		NTPPi: Universal,
	},
	TPPi: {
		DC:    NewRCC8Set(DC, EC, PO, TPPi, NTPPi),
		EC:    NewRCC8Set(EC, PO, TPPi, NTPPi),
		PO:    NewRCC8Set(PO, TPPi, NTPPi),
		EQ:    NewRCC8Set(TPPi),
		TPP:   NewRCC8Set(PO, TPP, TPPi, EQ),
		NTPP:  NewRCC8Set(PO, TPP, NTPP),
		TPPi:  NewRCC8Set(TPPi, NTPPi),
		NTPPi: NewRCC8Set(NTPPi),
	},
	NTPPi: {
		DC:    NewRCC8Set(DC, EC, PO, TPPi, NTPPi),
		EC:    NewRCC8Set(PO, TPPi, NTPPi),
		PO:    NewRCC8Set(PO, TPPi, NTPPi),
		EQ:    NewRCC8Set(NTPPi),
		TPP:   NewRCC8Set(PO, TPPi, NTPPi),
		NTPP:  NewRCC8Set(PO, TPP, NTPP, TPPi, NTPPi, EQ),
		TPPi:  NewRCC8Set(NTPPi),
		NTPPi: NewRCC8Set(NTPPi),
	},
}

// Compose returns the composition r ∘ s: the possible relations between a
// and c given r(a, b) and s(b, c).
func Compose(r, s RCC8) RCC8Set { return rcc8Composition[r][s] }

// ComposeSets lifts composition to disjunctions.
func ComposeSets(r, s RCC8Set) RCC8Set {
	var out RCC8Set
	for _, br := range r.Relations() {
		for _, bs := range s.Relations() {
			out |= Compose(br, bs)
			if out == Universal {
				return out
			}
		}
	}
	return out
}

// Network is an RCC8 constraint network over n regions: a complete graph
// of disjunctive constraints. Unconstrained edges are Universal.
type Network struct {
	n     int
	edges []RCC8Set // row-major n x n
}

// NewNetwork creates an unconstrained network over n regions. Diagonal
// entries are EQ.
func NewNetwork(n int) *Network {
	if n < 0 {
		panic("qsr: negative network size")
	}
	net := &Network{n: n, edges: make([]RCC8Set, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				net.edges[i*n+j] = NewRCC8Set(EQ)
			} else {
				net.edges[i*n+j] = Universal
			}
		}
	}
	return net
}

// Constraint returns the current constraint between regions i and j.
func (net *Network) Constraint(i, j int) RCC8Set { return net.edges[i*net.n+j] }

// Constrain conjoins a constraint onto edge (i, j), keeping (j, i)
// consistent via the converse. It reports whether the edge remains
// satisfiable.
func (net *Network) Constrain(i, j int, s RCC8Set) bool {
	ni := net.edges[i*net.n+j].Intersect(s)
	net.edges[i*net.n+j] = ni
	net.edges[j*net.n+i] = ni.Converse()
	return !ni.IsEmpty()
}

// PathConsistent runs the path-consistency (algebraic closure) algorithm:
// every edge (i, j) is refined by composition through every intermediate
// k until a fixed point. It returns false when some edge becomes empty —
// the network is certainly inconsistent. (Path consistency is complete
// for deciding consistency of base-relation RCC8 networks.)
func (net *Network) PathConsistent() bool {
	n := net.n
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				cur := net.edges[i*n+j]
				for k := 0; k < n; k++ {
					if k == i || k == j {
						continue
					}
					refined := cur.Intersect(ComposeSets(net.edges[i*n+k], net.edges[k*n+j]))
					if refined != cur {
						cur = refined
						changed = true
					}
					if cur.IsEmpty() {
						net.edges[i*n+j] = cur
						net.edges[j*n+i] = cur
						return false
					}
				}
				if cur != net.edges[i*n+j] {
					net.edges[i*n+j] = cur
					net.edges[j*n+i] = cur.Converse()
				}
			}
		}
	}
	return true
}

// NetworkFromScene builds the base-relation constraint network observed
// between the given region geometries. Non-region pairs (no RCC8
// counterpart) are left Universal.
func NetworkFromScene(regions []geom.Geometry) *Network {
	net := NewNetwork(len(regions))
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			if r, ok := RCC8Of(regions[i], regions[j]); ok {
				net.Constrain(i, j, NewRCC8Set(r))
			}
		}
	}
	return net
}
