package geom

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// scanlineInteriorPointLoop is the scanline search as it was before the
// crossings were sorted in O(k log k) and the spans visited widest
// first, kept as the oracle of TestScanlineInteriorPointMatchesLoop: an
// insertion sort of the crossings, then one LocateInPolygon per span
// wider than the best interior span so far, in ascending x.
func scanlineInteriorPointLoop(poly Polygon, y float64) (Point, bool) {
	var xs []float64
	for ri := 0; ri <= len(poly.Holes); ri++ {
		r := poly.ring(ri)
		n := len(r.Coords)
		for i := 0; i < n; i++ {
			a := r.Coords[i]
			b := r.Coords[(i+1)%n]
			if (a.Y > y) != (b.Y > y) {
				xs = append(xs, a.X+(y-a.Y)/(b.Y-a.Y)*(b.X-a.X))
			}
		}
	}
	if len(xs) < 2 {
		return Point{}, false
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	best := Point{}
	bestWidth := 0.0
	for i := 0; i+1 < len(xs); i += 2 {
		w := xs[i+1] - xs[i]
		if w > bestWidth {
			mid := Point{(xs[i] + xs[i+1]) / 2, y}
			if LocateInPolygon(mid, poly) == Interior {
				best = mid
				bestWidth = w
			}
		}
	}
	if bestWidth > 0 {
		return best, true
	}
	return Point{}, false
}

// comb is a polygon of teeth pointing up from a base bar 1 high. Tooth k
// spans x from its left edge to width(k) further, teeth stand 2 apart,
// and each rises to y = 100. The ring runs along the base left to right
// and then over the teeth right to left, so a scanline through the teeth
// meets the crossings in descending x. A comb of n teeth has 4n
// vertices.
func comb(n int, width func(k int) float64) Polygon {
	left := make([]float64, n)
	for k := 1; k < n; k++ {
		left[k] = left[k-1] + width(k-1) + 2
	}
	c := []Point{Pt(0, 0), Pt(left[n-1]+width(n-1), 0)}
	for k := n - 1; k >= 0; k-- {
		c = append(c, Pt(left[k]+width(k), 100), Pt(left[k], 100))
		if k > 0 {
			c = append(c, Pt(left[k], 1), Pt(left[k-1]+width(k-1), 1))
		}
	}
	return Poly(c...)
}

// TestScanlineInteriorPointMatchesLoop: on random grid rings (often
// self-intersecting, so spans between crossings need not be interior),
// holed star polygons and combs with equal, widening and repeated tooth
// widths, at the scanline heights polygonInteriorPoint uses and, below
// the combs' height, at every half-unit height (through vertices),
// scanlineInteriorPoint returns exactly the oracle's point and ok.
func TestScanlineInteriorPointMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	star := func(n int, cx, cy, r float64) Ring {
		c := make([]Point, n)
		for i := range c {
			a := 2 * math.Pi * float64(i) / float64(n)
			rad := r * (0.5 + rng.Float64()/2)
			c[i] = Pt(cx+math.Round(rad*math.Cos(a)*4)/4, cy+math.Round(rad*math.Sin(a)*4)/4)
		}
		return Ring{Coords: c}
	}
	var polys []Polygon
	for trial := 0; trial < 600; trial++ {
		grid := func() Ring {
			c := make([]Point, 3+rng.Intn(12))
			for i := range c {
				c[i] = Pt(float64(rng.Intn(6)), float64(rng.Intn(6)))
			}
			return Ring{Coords: c}
		}
		holes := make([]Ring, rng.Intn(3))
		for h := range holes {
			holes[h] = star(3+rng.Intn(6), float64(rng.Intn(9)-4), float64(rng.Intn(9)-4), 1+2*rng.Float64())
		}
		widths := []float64{1, 2, 3}
		teeth := 2 + rng.Intn(30)
		polys = append(polys,
			Polygon{Shell: grid()},
			Polygon{Shell: grid(), Holes: []Ring{grid()}},
			Polygon{Shell: star(6+rng.Intn(30), 0, 0, 10), Holes: holes},
			comb(teeth, func(int) float64 { return 1 }),
			comb(teeth, func(k int) float64 { return 1 + float64(k)*1e-4 }),
			comb(teeth, func(k int) float64 { return widths[(k*7+trial)%3] }),
		)
	}
	cases, widestNotInterior, none := 0, 0, 0
	for _, p := range polys {
		env := p.Envelope()
		ys := []float64{}
		for _, f := range []float64{0.5, 0.382, 0.618, 0.271, 0.729, 0.137, 0.863} {
			ys = append(ys, env.MinY+f*(env.MaxY-env.MinY))
		}
		for y := math.Ceil(env.MinY); y <= env.MaxY && env.Height() <= 25; y += 0.5 {
			ys = append(ys, y)
		}
		for _, y := range ys {
			want, wantOK := scanlineInteriorPointLoop(p, y)
			got, gotOK := scanlineInteriorPoint(p, y)
			if got != want || gotOK != wantOK {
				t.Fatalf("y=%v: scanlineInteriorPoint = %v %v, loop %v %v\npolygon %s", y, got, gotOK, want, wantOK, p.WKT())
			}
			cases++
			if !wantOK {
				none++
			} else if w := widestSpanMid(p, y); w != want {
				widestNotInterior++
			}
		}
	}
	t.Logf("%d scanlines: %d without an interior span, %d whose leftmost widest span is not interior", cases, none, widestNotInterior)
	// The comparison proves little unless both fallbacks are exercised.
	if none < 100 || widestNotInterior < 100 {
		t.Errorf("too few scanlines exercise the fallbacks: %d without an interior span, %d past the widest span", none, widestNotInterior)
	}
}

// widestSpanMid returns the midpoint of the leftmost widest span of the
// scanline at y, interior or not.
func widestSpanMid(p Polygon, y float64) Point {
	var xs []float64
	for _, r := range p.Rings() {
		n := len(r.Coords)
		for i := 0; i < n; i++ {
			a, b := r.Coords[i], r.Coords[(i+1)%n]
			if (a.Y > y) != (b.Y > y) {
				xs = append(xs, a.X+(y-a.Y)/(b.Y-a.Y)*(b.X-a.X))
			}
		}
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	var mid Point
	best := 0.0
	for i := 0; i+1 < len(xs); i += 2 {
		if w := xs[i+1] - xs[i]; w > best {
			best, mid = w, Point{(xs[i] + xs[i+1]) / 2, y}
		}
	}
	return mid
}

// TestInteriorPointCombsLinear finds interior points of two 80,000-vertex
// combs whose centroids fall in a notch, so the scanline search runs:
// one with equal teeth, whose crossings arrive in descending x, and one
// whose teeth widen left to right, so every span in x order is wider
// than the last. Sorting the crossings by insertion took 2.6 s on the
// first, and one point location per ever-wider span 55 s on the second
// (2-core x86-64 host); the bound is under a tenth of the faster of the
// two, and about twice what the search takes there under the race
// detector.
func TestInteriorPointCombsLinear(t *testing.T) {
	const teeth, bound = 20000, 200 * time.Millisecond
	for _, c := range []struct {
		name  string
		width func(k int) float64
	}{
		{"equal teeth", func(int) float64 { return 1 }},
		{"widening teeth", func(k int) float64 { return 1 + float64(k)*1e-4 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := comb(teeth, c.width)
			if n := len(p.Shell.Coords); n != 4*teeth {
				t.Fatalf("comb has %d vertices, want %d", n, 4*teeth)
			}
			if loc := LocateInPolygon(p.Centroid(), p); loc == Interior {
				t.Fatalf("centroid %v is interior: the scanline search would not run", p.Centroid())
			}
			// The best of three runs, so one descheduling does not fail
			// the test.
			elapsed := time.Duration(math.MaxInt64)
			for run := 0; run < 3 && elapsed > bound; run++ {
				start := time.Now()
				ip, ok := polygonInteriorPoint(p)
				elapsed = min(elapsed, time.Since(start))
				if !ok || LocateInPolygon(ip, p) != Interior {
					t.Fatalf("polygonInteriorPoint = %v %v, not interior", ip, ok)
				}
			}
			t.Logf("polygonInteriorPoint: %v", elapsed)
			if elapsed > bound {
				t.Fatalf("polygonInteriorPoint took %v, want at most %v", elapsed, bound)
			}
		})
	}
}
