// Package de9im computes the dimensionally extended nine-intersection
// model (DE-9IM) of Clementini/Egenhofer for pairs of planar geometries.
// Package qsr reads the paper's topological relations off the matrix:
// equals, disjoint, touches, contains, within, covers, coveredBy,
// crosses, and overlaps — the vocabulary of Egenhofer & Franzosa's
// 9-intersection model cited as [10] in the paper.
//
// The computation follows the classic relate strategy: decompose both
// geometries into tagged linework and points (geom.BuildSoup), node the
// linework at mutual intersections, classify each resulting sub-segment
// midpoint and isolated point against the other geometry, and fill in the
// area entries by containment reasoning.
package de9im

import (
	"fmt"
	"strings"

	"repro/internal/geom"
)

// Dim is a DE-9IM matrix entry: the dimension of an intersection, or F
// (empty).
type Dim int8

// Matrix entry values.
const (
	// F marks an empty intersection.
	F Dim = -1
	// D0, D1, D2 are intersection dimensions 0, 1, and 2.
	D0 Dim = 0
	D1 Dim = 1
	D2 Dim = 2
)

// Rune returns the standard DE-9IM character for the entry.
func (d Dim) Rune() byte {
	switch d {
	case F:
		return 'F'
	case D0:
		return '0'
	case D1:
		return '1'
	case D2:
		return '2'
	}
	return '?'
}

// Matrix is a DE-9IM matrix. Rows index the first geometry's interior,
// boundary, and exterior; columns the second geometry's.
type Matrix [3][3]Dim

// Row/column indices into a Matrix.
const (
	Int = 0
	Bnd = 1
	Ext = 2
)

// NewMatrix returns a matrix with all entries empty (F).
func NewMatrix() Matrix {
	var m Matrix
	for i := range m {
		for j := range m[i] {
			m[i][j] = F
		}
	}
	return m
}

// Set raises entry (r, c) to at least d. Entries only ever grow: a
// dimension-2 intersection subsumes evidence of lower dimension.
func (m *Matrix) Set(r, c int, d Dim) {
	if d > m[r][c] {
		m[r][c] = d
	}
}

// Transpose returns the matrix of the swapped operand order.
func (m Matrix) Transpose() Matrix {
	var t Matrix
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			t[j][i] = m[i][j]
		}
	}
	return t
}

// String renders the matrix in the standard 9-character form, row-major.
func (m Matrix) String() string {
	var b strings.Builder
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			b.WriteByte(m[i][j].Rune())
		}
	}
	return b.String()
}

// Matches reports whether the matrix satisfies a 9-character DE-9IM
// pattern. Pattern characters: 'T' (non-empty), 'F' (empty), '*' (any),
// and '0'/'1'/'2' (exact dimension).
func (m Matrix) Matches(pattern string) bool {
	if len(pattern) != 9 {
		panic(fmt.Sprintf("de9im: pattern must have 9 characters, got %q", pattern))
	}
	for i := 0; i < 9; i++ {
		e := m[i/3][i%3]
		switch pattern[i] {
		case '*':
		case 'T', 't':
			if e == F {
				return false
			}
		case 'F', 'f':
			if e != F {
				return false
			}
		case '0':
			if e != D0 {
				return false
			}
		case '1':
			if e != D1 {
				return false
			}
		case '2':
			if e != D2 {
				return false
			}
		default:
			panic(fmt.Sprintf("de9im: invalid pattern character %q", pattern[i]))
		}
	}
	return true
}

// IsEquals reports point-set equality.
func (m Matrix) IsEquals() bool { return m.Matches("T*F**FFF*") }

// IsDisjoint reports an empty intersection.
func (m Matrix) IsDisjoint() bool { return m.Matches("FF*FF****") }

// locToCol maps a geom.Location to the matrix column index for the second
// geometry.
func locToCol(l geom.Location) int {
	switch l {
	case geom.Interior:
		return Int
	case geom.Boundary:
		return Bnd
	default:
		return Ext
	}
}
