package de9im

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// This file checks Relate against a Monte-Carlo oracle: DE-9IM entries
// are definitions over point sets, so dense sampling of the plane can
// estimate each interior/exterior intersection independently of the
// implementation. Boundary entries are excluded (boundaries have measure
// zero under area sampling); for them we rely on the exact construction
// tests in relate_test.go.

// sampleLocate estimates whether the interiors/exteriors of a and b
// intersect with positive area by classifying a dense grid of points.
func sampleOracle(a, b geom.Geometry, minX, minY, maxX, maxY float64, step float64) (ii, ie, ei bool) {
	for x := minX; x <= maxX; x += step {
		for y := minY; y <= maxY; y += step {
			p := geom.Pt(x, y)
			la := geom.Locate(p, a)
			lb := geom.Locate(p, b)
			if la == geom.Interior && lb == geom.Interior {
				ii = true
			}
			if la == geom.Interior && lb == geom.Exterior {
				ie = true
			}
			if la == geom.Exterior && lb == geom.Interior {
				ei = true
			}
		}
	}
	return
}

// randomOracleRect returns a rectangle with half-integer coordinates so
// that the sampling grid (offset by 0.25) never lands on a boundary.
func randomOracleRect(rng *rand.Rand) geom.Polygon {
	x := float64(rng.Intn(16)) / 2
	y := float64(rng.Intn(16)) / 2
	w := float64(1+rng.Intn(8)) / 2
	h := float64(1+rng.Intn(8)) / 2
	return geom.Rect(x, y, x+w, y+h)
}

func TestRelateAgainstSamplingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 200; trial++ {
		a := randomOracleRect(rng)
		b := randomOracleRect(rng)
		m := Relate(a, b)

		// Sample with an offset grid that avoids all boundaries
		// (boundaries are at multiples of 0.25; sample at 0.125 offsets).
		ii, ie, ei := sampleOracle(a, b, -1+0.125, -1+0.125, 14, 14, 0.25)

		if ii != (m[Int][Int] == D2) {
			t.Fatalf("trial %d: II sampled=%v matrix=%s\n a=%s\n b=%s",
				trial, ii, m, a.WKT(), b.WKT())
		}
		if ie != (m[Int][Ext] == D2) {
			t.Fatalf("trial %d: IE sampled=%v matrix=%s\n a=%s\n b=%s",
				trial, ie, m, a.WKT(), b.WKT())
		}
		if ei != (m[Ext][Int] == D2) {
			t.Fatalf("trial %d: EI sampled=%v matrix=%s\n a=%s\n b=%s",
				trial, ei, m, a.WKT(), b.WKT())
		}
	}
}

func TestRelateDonutAgainstSamplingOracle(t *testing.T) {
	// Holed polygons against random rectangles: the hardest area cases.
	donut := geom.Polygon{
		Shell: geom.Ring{Coords: []geom.Point{geom.Pt(1, 1), geom.Pt(7, 1), geom.Pt(7, 7), geom.Pt(1, 7)}},
		Holes: []geom.Ring{{Coords: []geom.Point{geom.Pt(3, 3), geom.Pt(5, 3), geom.Pt(5, 5), geom.Pt(3, 5)}}},
	}
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 100; trial++ {
		b := randomOracleRect(rng)
		m := Relate(donut, b)
		ii, ie, ei := sampleOracle(donut, b, 0.125, 0.125, 13, 13, 0.25)
		if ii != (m[Int][Int] == D2) || ie != (m[Int][Ext] == D2) || ei != (m[Ext][Int] == D2) {
			t.Fatalf("trial %d: sampled (%v %v %v) vs matrix %s\n b=%s",
				trial, ii, ie, ei, m, b.WKT())
		}
	}
}

func TestContainmentEntriesAgreeWithOracle(t *testing.T) {
	// The entries qsr's classifier reads containment from must agree
	// with a pure point-sampling test: b lies in the closure of a
	// (EI and EB empty, shared by contains, covers and equals) iff no
	// sample of b's interior is outside a.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		a := randomOracleRect(rng)
		b := randomOracleRect(rng)
		m := Relate(a, b)
		_, _, ei := sampleOracle(a, b, 0.125, 0.125, 13, 13, 0.25)
		if inside := m[Ext][Int] == F && m[Ext][Bnd] == F; inside == ei {
			t.Fatalf("trial %d: matrix %s says b inside a = %v, sampled interior outside a = %v\n a=%s\n b=%s",
				trial, m, inside, ei, a.WKT(), b.WKT())
		}
	}
}
