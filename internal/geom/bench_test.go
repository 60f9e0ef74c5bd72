package geom

import (
	"math"
	"math/rand"
	"testing"
)

// benchPolygon builds a regular n-gon for relate-path benchmarks.
func benchPolygon(n int, cx, cy, r float64) Polygon {
	coords := make([]Point, n)
	for i := range coords {
		theta := 2 * math.Pi * float64(i) / float64(n)
		coords[i] = Pt(cx+r*math.Cos(theta), cy+r*math.Sin(theta))
	}
	return Polygon{Shell: Ring{Coords: coords}}
}

func BenchmarkLocateInPolygon(b *testing.B) {
	poly := benchPolygon(64, 0, 0, 10)
	pts := []Point{Pt(0, 0), Pt(9, 0), Pt(20, 20), Pt(5, 5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pts {
			LocateInPolygon(p, poly)
		}
	}
}

func BenchmarkDistancePolygons(b *testing.B) {
	a := benchPolygon(32, 0, 0, 10)
	c := benchPolygon(32, 30, 0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Distance(a, c)
	}
}

func BenchmarkNodeSoupsOverlapping(b *testing.B) {
	a := BuildSoup(benchPolygon(48, 0, 0, 10))
	c := BuildSoup(benchPolygon(48, 8, 0, 10))
	sc := new(Scratch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NodeSoups(a, c, sc)
	}
}

func BenchmarkConvexHull(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 1000)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvexHull(pts)
	}
}

func BenchmarkValidatePolygon(b *testing.B) {
	poly := benchPolygon(64, 0, 0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Validate(poly); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseWKT(b *testing.B) {
	wkt := benchPolygon(64, 0, 0, 10).WKT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseWKT(wkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWithinDistanceDisjointPolygons measures the prepared distance
// decision on a district and a disjoint slum 3 units east of it, one
// edge tree leaf each, at the cli-scene thresholds: veryCloseTo (1)
// fails, closeTo (5) holds.
func BenchmarkWithinDistanceDisjointPolygons(b *testing.B) {
	district := Prepare(Rect(0, 0, 10, 10))
	slum := Prepare(Rect(13, 0, 14, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		district.WithinDistance(slum, 1)
		district.WithinDistance(slum, 5)
	}
}
