package de9im

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func ngon(n int, cx, cy, r float64) geom.Polygon {
	coords := make([]geom.Point, n)
	for i := range coords {
		theta := 2 * math.Pi * float64(i) / float64(n)
		coords[i] = geom.Pt(cx+r*math.Cos(theta), cy+r*math.Sin(theta))
	}
	return geom.Polygon{Shell: geom.Ring{Coords: coords}}
}

func BenchmarkRelatePolygonsOverlapping(b *testing.B) {
	a := ngon(32, 0, 0, 10)
	c := ngon(32, 8, 0, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Relate(a, c)
	}
}

// BenchmarkRelatePreparedPolygonsOverlapping is the prepared counterpart
// of BenchmarkRelatePolygonsOverlapping: the per-geometry derived
// structures are built once outside the loop, as a spatial join reuses
// them across the whole join.
func BenchmarkRelatePreparedPolygonsOverlapping(b *testing.B) {
	pa := geom.Prepare(ngon(32, 0, 0, 10))
	pc := geom.Prepare(ngon(32, 8, 0, 10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RelatePrepared(pa, pc)
	}
}

func BenchmarkRelatePreparedPolygonsTouching(b *testing.B) {
	pa := geom.Prepare(geom.Rect(0, 0, 10, 10))
	pc := geom.Prepare(geom.Rect(10, 0, 20, 10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RelatePrepared(pa, pc)
	}
}

func BenchmarkRelatePreparedLinePolygon(b *testing.B) {
	pp := geom.Prepare(ngon(32, 0, 0, 10))
	pl := geom.Prepare(geom.Line(geom.Pt(-15, 0), geom.Pt(15, 0)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RelatePrepared(pl, pp)
	}
}

// BenchmarkPrepare measures the one-off preparation cost the join
// amortises.
func BenchmarkPrepare(b *testing.B) {
	poly := ngon(32, 0, 0, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.Prepare(poly)
	}
}

func BenchmarkRelatePolygonsDisjoint(b *testing.B) {
	a := ngon(32, 0, 0, 10)
	c := ngon(32, 100, 0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Relate(a, c)
	}
}

func BenchmarkRelateLinePolygon(b *testing.B) {
	poly := ngon(32, 0, 0, 10)
	line := geom.Line(geom.Pt(-15, 0), geom.Pt(15, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Relate(line, poly)
	}
}

// BenchmarkPrepareAll prepares every layer of one 28×28 cli-scene scene,
// one PrepareAll per layer, as extraction does at Parallelism 1.
func BenchmarkPrepareAll(b *testing.B) {
	layers := sceneLayers(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gs := range layers {
			geom.PrepareAll(gs)
		}
	}
}

// BenchmarkRelatePreparedDistrict relates a prepared 10×10 district with
// a prepared point, line and polygon strictly inside it: the commonest
// refine of a scene extraction.
func BenchmarkRelatePreparedDistrict(b *testing.B) {
	district := geom.Prepare(geom.Rect(0, 0, 10, 10))
	for _, op := range districtOperands[:3] {
		pg := geom.Prepare(op.g)
		b.Run(op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RelatePrepared(district, pg)
			}
		})
	}
}
