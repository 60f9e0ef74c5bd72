package geom

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// preparedTestGeometries returns a diverse pile of geometries on a small
// half-integer lattice, so random pairs frequently touch, overlap, share
// vertices, or contain one another — the cases where the prepared and
// unprepared code paths could plausibly diverge.
func preparedTestGeometries(rng *rand.Rand) []Geometry {
	half := func(n int) float64 { return float64(rng.Intn(n)) / 2 }
	var gs []Geometry
	// Rectangles, including degenerate-thin ones.
	for i := 0; i < 6; i++ {
		x, y := half(12), half(12)
		gs = append(gs, Rect(x, y, x+0.5+half(8), y+0.5+half(8)))
	}
	// Irregular convex polygons (jittered n-gons).
	for i := 0; i < 4; i++ {
		cx, cy := 1+half(10), 1+half(10)
		r := 0.5 + half(5)
		n := 5 + rng.Intn(8)
		var coords []Point
		for k := 0; k < n; k++ {
			ang := 2 * math.Pi * float64(k) / float64(n)
			rr := r * (0.7 + 0.3*rng.Float64())
			coords = append(coords, Pt(cx+rr*math.Cos(ang), cy+rr*math.Sin(ang)))
		}
		gs = append(gs, Polygon{Shell: Ring{Coords: coords}})
	}
	// Donuts.
	for i := 0; i < 3; i++ {
		x, y := half(8), half(8)
		gs = append(gs, Polygon{
			Shell: Ring{Coords: []Point{Pt(x, y), Pt(x+4, y), Pt(x+4, y+4), Pt(x, y+4)}},
			Holes: []Ring{{Coords: []Point{Pt(x+1.5, y+1.5), Pt(x+2.5, y+1.5), Pt(x+2.5, y+2.5), Pt(x+1.5, y+2.5)}}},
		})
	}
	// Multipolygons of two disjoint parts.
	for i := 0; i < 2; i++ {
		x, y := half(6), half(6)
		gs = append(gs, MultiPolygon{Polygons: []Polygon{
			Rect(x, y, x+1.5, y+1.5),
			Rect(x+3, y+3, x+4.5, y+4.5),
		}})
	}
	// Open polylines, closed rings-as-lines, and multilines.
	for i := 0; i < 4; i++ {
		var coords []Point
		x, y := half(12), half(12)
		coords = append(coords, Pt(x, y))
		for k := 0; k < 2+rng.Intn(4); k++ {
			x += half(6) - 1.5
			y += half(6) - 1.5
			coords = append(coords, Pt(x, y))
		}
		gs = append(gs, LineString{Coords: coords})
	}
	gs = append(gs,
		Line(Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4), Pt(0, 0)), // closed
		MultiLineString{Lines: []LineString{
			Line(Pt(1, 1), Pt(3, 1)),
			Line(Pt(3, 1), Pt(3, 3)), // shares an endpoint: mod-2 rule
			Line(Pt(5, 5), Pt(7, 7)),
		}},
	)
	// Points and multipoints, some on the lattice (vertex/edge contact).
	for i := 0; i < 4; i++ {
		gs = append(gs, Pt(half(16), half(16)))
	}
	gs = append(gs, MultiPoint{Points: []Point{Pt(1, 1), Pt(2, 2), Pt(4, 0)}})
	return gs
}

// preparedProbePoints returns probe points that stress a geometry's
// Locate: a grid over the (buffered) envelope plus every vertex, edge
// midpoint, and near-vertex jitter.
func preparedProbePoints(g Geometry) []Point {
	var pts []Point
	env := g.Envelope().Buffer(1)
	if !env.IsEmpty() {
		stepX := (env.MaxX - env.MinX) / 9
		stepY := (env.MaxY - env.MinY) / 9
		if stepX <= 0 {
			stepX = 0.25
		}
		if stepY <= 0 {
			stepY = 0.25
		}
		for x := env.MinX; x <= env.MaxX; x += stepX {
			for y := env.MinY; y <= env.MaxY; y += stepY {
				pts = append(pts, Pt(x, y))
			}
		}
	}
	addSeg := func(s Segment) {
		pts = append(pts, s.A, s.Midpoint(), Pt(s.A.X+Eps/2, s.A.Y), Pt(s.Midpoint().X, s.Midpoint().Y+1e-7))
	}
	switch t := g.(type) {
	case Point:
		pts = append(pts, t)
	case MultiPoint:
		pts = append(pts, t.Points...)
	case LineString:
		for i := 0; i < t.NumSegments(); i++ {
			addSeg(t.Segment(i))
		}
	case MultiLineString:
		for _, l := range t.Lines {
			for i := 0; i < l.NumSegments(); i++ {
				addSeg(l.Segment(i))
			}
		}
	case Polygon:
		for _, r := range t.Rings() {
			for i := 0; i < r.NumSegments(); i++ {
				addSeg(r.Segment(i))
			}
		}
	case MultiPolygon:
		for _, p := range t.Polygons {
			for _, r := range p.Rings() {
				for i := 0; i < r.NumSegments(); i++ {
					addSeg(r.Segment(i))
				}
			}
		}
	}
	return pts
}

func TestPreparedLocateMatchesLocate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for gi, g := range preparedTestGeometries(rng) {
		pg := Prepare(g)
		for _, p := range preparedProbePoints(g) {
			want := Locate(p, g)
			got := pg.Locate(p)
			if got != want {
				t.Fatalf("geometry %d (%s): Locate(%v) prepared=%v unprepared=%v",
					gi, g.WKT(), p, got, want)
			}
		}
		// Far probes exercise the envelope fast path.
		if got := pg.Locate(Pt(1e6, -1e6)); got != Exterior {
			t.Fatalf("geometry %d: far probe located %v", gi, got)
		}
	}
}

// TestNodePreparedMatchesNodeSoups nodes every pair through one shared
// Scratch, as a relate reuses a pooled one, and requires each result to
// equal NodeSoups with a fresh scratch. Some pairs leave a side uncut,
// so that side's result is the soup's own Segments: the later pairs
// must not write into it, which the soups' snapshots check at the end.
func TestNodePreparedMatchesNodeSoups(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gs := preparedTestGeometries(rng)
	prepared := make([]*Prepared, len(gs))
	soups := make([][]TaggedSegment, len(gs))
	for i, g := range gs {
		prepared[i] = Prepare(g)
		soups[i] = slices.Clone(prepared[i].Soup().Segments)
	}
	sc := new(Scratch)
	pairs, aliased := 0, 0
	for i, a := range gs {
		for j, b := range gs {
			if a.IsEmpty() || b.IsEmpty() {
				continue
			}
			want := NodeSoups(BuildSoup(a), BuildSoup(b), new(Scratch))
			got := NodePrepared(prepared[i], prepared[j], sc)
			if !nodeResultsEqual(got, want) {
				t.Fatalf("NodePrepared(%s, %s) diverges:\n got  %+v\n want %+v",
					a.WKT(), b.WKT(), got, want)
			}
			if len(got.SubA) > 0 && &got.SubA[0] == &prepared[i].Soup().Segments[0] {
				aliased++
			}
			pairs++
		}
	}
	if pairs == 0 || aliased == 0 || aliased == pairs {
		t.Fatalf("%d pairs noded, %d with an uncut first side; want some of each", pairs, aliased)
	}
	for i, pg := range prepared {
		if !slices.Equal(pg.Soup().Segments, soups[i]) {
			t.Fatalf("noding through a shared scratch changed the soup of %s", gs[i].WKT())
		}
	}
}

// nodeResultsEqual compares two noding results element-wise, so a nil
// slice equals an empty one: an arena-backed soup's empty windows are
// not nil.
func nodeResultsEqual(a, b NodeResult) bool {
	return slices.Equal(a.SubA, b.SubA) && slices.Equal(a.SubB, b.SubB) && slices.Equal(a.Nodes, b.Nodes)
}

// TestPreparedDistanceMatchesDistance requires WithinDistance to answer
// Distance <= d on every pair of the test pile, at the pair's own
// distance, its float neighbours and the other decision probes.
func TestPreparedDistanceMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	gs := preparedTestGeometries(rng)
	prepared := make([]*Prepared, len(gs))
	for i, g := range gs {
		prepared[i] = Prepare(g)
	}
	for i, a := range gs {
		for j, b := range gs {
			checkWithinDistance(t, a, b, prepared[i], prepared[j], 1.5)
		}
	}
}

// TestPointWithinDistanceMatchesDistance requires the point–point
// decision to answer Distance <= d, and what the prepared decision
// answers, at every probe of pairs that coincide, lie within Eps or
// just beyond it, sit on a half-integer lattice or lie far apart.
func TestPointWithinDistanceMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := []Point{Pt(0, 0), Pt(5e-10, 0), Pt(1e-9, 0), Pt(0, 2e-9), Pt(3, 4), Pt(-1e6, 1e6)}
	for i := 0; i < 20; i++ {
		pts = append(pts, Pt(float64(rng.Intn(12))/2, float64(rng.Intn(12))/2))
	}
	for _, p := range pts {
		for _, q := range pts {
			D, pp, pq := Distance(p, q), Prepare(p), Prepare(q)
			for _, d := range withinDistanceProbes(D, 1.5) {
				got := p.WithinDistance(q, d)
				if want := D <= d; got != want {
					t.Fatalf("%v.WithinDistance(%v, %v) = %v, Distance = %v", p, q, d, got, D)
				}
				if prep := pp.WithinDistance(pq, d); got != prep {
					t.Fatalf("%v.WithinDistance(%v, %v) = %v, prepared reads %v", p, q, d, got, prep)
				}
			}
		}
	}
}

// withinDistanceProbes are the thresholds a WithinDistance decision is
// checked at for a pair at distance D: D and its float neighbours, the
// Eps boundary below which Distance reads 0 and its neighbours, both
// zeros, a negative, NaN, +Inf and the caller's extra values.
func withinDistanceProbes(D float64, extra ...float64) []float64 {
	inf := math.Inf(1)
	return append([]float64{
		D, math.Nextafter(D, inf), math.Nextafter(D, -inf),
		0, math.Copysign(0, -1), Eps, math.Nextafter(Eps, inf), math.Nextafter(Eps, -inf),
		-1, math.NaN(), inf,
	}, extra...)
}

// checkWithinDistance requires pa.WithinDistance(pb, d) to equal
// Distance(a, b) <= d, and pb.WithinDistance(pa, d) to equal
// Distance(b, a) <= d, at every probe of the pair's distance in that
// order.
func checkWithinDistance(t *testing.T, a, b Geometry, pa, pb *Prepared, extra ...float64) {
	t.Helper()
	for _, o := range []struct {
		a, b   Geometry
		pa, pb *Prepared
	}{{a, b, pa, pb}, {b, a, pb, pa}} {
		D := Distance(o.a, o.b)
		for _, d := range withinDistanceProbes(D, extra...) {
			if got, want := o.pa.WithinDistance(o.pb, d), D <= d; got != want {
				t.Fatalf("WithinDistance(d=%v) = %v, Distance = %v\n a=%s\n b=%s", d, got, D, wkt(o.a), wkt(o.b))
			}
		}
	}
}

// checkWithinDistances requires WithinDistances at every ordered pair
// of the pair's probes to answer what WithinDistance answers at each,
// with the operands either way round.
func checkWithinDistances(t *testing.T, a, b Geometry, pa, pb *Prepared, extra ...float64) {
	t.Helper()
	for _, o := range []struct {
		a, b   Geometry
		pa, pb *Prepared
	}{{a, b, pa, pb}, {b, a, pb, pa}} {
		probes := withinDistanceProbes(Distance(o.a, o.b), extra...)
		for _, near := range probes {
			for _, far := range probes {
				gotNear, gotFar := o.pa.WithinDistances(o.pb, near, far)
				if wantNear, wantFar := o.pa.WithinDistance(o.pb, near), o.pa.WithinDistance(o.pb, far); gotNear != wantNear || gotFar != wantFar {
					t.Fatalf("WithinDistances(%v, %v) = %v, %v, WithinDistance reads %v, %v\n a=%s\n b=%s",
						near, far, gotNear, gotFar, wantNear, wantFar, wkt(o.a), wkt(o.b))
				}
			}
		}
	}
}

// wkt renders g for a failure message, nil included.
func wkt(g Geometry) string {
	if g == nil {
		return "<nil>"
	}
	return g.WKT()
}

func TestPreparedEmptyAndNil(t *testing.T) {
	cases := []*Prepared{
		Prepare(nil),
		Prepare(MultiPoint{}),
		Prepare(LineString{}),
		Prepare(Polygon{}),
		Prepare(MultiPolygon{}),
	}
	for i, pg := range cases {
		if !pg.IsEmpty() {
			t.Errorf("case %d: not empty", i)
		}
		if got := pg.Locate(Pt(0, 0)); got != Exterior {
			t.Errorf("case %d: Locate = %v", i, got)
		}
		pt := Prepare(Pt(1, 1))
		if pg.WithinDistance(pt, math.MaxFloat64) || pt.WithinDistance(pg, math.MaxFloat64) ||
			!pg.WithinDistance(pt, math.Inf(1)) || !pt.WithinDistance(pg, math.Inf(1)) {
			t.Errorf("case %d: an empty operand is not at distance +Inf", i)
		}
	}
	var nilPrepared *Prepared
	if !nilPrepared.IsEmpty() || nilPrepared.NumEdges() != 0 {
		t.Error("nil *Prepared must behave as empty")
	}
}

// TestPreparedConcurrentUse drives shared Prepared values from many
// goroutines, each result against the unprepared one; run with -race
// this pins the read-only sharing contract the extraction worker pool
// relies on, and the pooled noding scratch. The partners of the donut
// lie inside it, in its hole, outside it, across its boundary, and
// overlapping it, so some noded pairs have cuts and some have none.
func TestPreparedConcurrentUse(t *testing.T) {
	donut := Polygon{
		Shell: Ring{Coords: []Point{Pt(0, 0), Pt(8, 0), Pt(8, 8), Pt(0, 8)}},
		Holes: []Ring{{Coords: []Point{Pt(3, 3), Pt(5, 3), Pt(5, 5), Pt(3, 5)}}},
	}
	pg := Prepare(donut)
	other := Prepare(Rect(6, 6, 10, 10))
	partners := []Geometry{
		Pt(1, 1),
		Line(Pt(1, 1), Pt(2, 6), Pt(6, 2)),
		Rect(3.5, 3.5, 4.5, 4.5),
		Rect(20, 20, 23, 23),
		Line(Pt(-2, 4), Pt(12, 4)),
		other.Geometry(),
	}
	prepared := make([]*Prepared, len(partners))
	wantNodes := make([][2]NodeResult, len(partners))
	for i, g := range partners {
		prepared[i] = Prepare(g)
		wantNodes[i] = [2]NodeResult{NodeSoups(BuildSoup(donut), BuildSoup(g), new(Scratch)), NodeSoups(BuildSoup(g), BuildSoup(donut), new(Scratch))}
	}
	farD := Distance(donut, prepared[3].Geometry())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			sc := GetScratch()
			defer sc.Release()
			for i := 0; i < 200; i++ {
				p := Pt(rng.Float64()*10-1, rng.Float64()*10-1)
				if got, want := pg.Locate(p), Locate(p, donut); got != want {
					t.Errorf("Locate(%v) = %v, want %v", p, got, want)
					return
				}
				if !pg.WithinDistance(other, 0) || !pg.WithinDistance(prepared[3], farD) || pg.WithinDistance(prepared[3], math.Nextafter(farD, 0)) {
					t.Errorf("WithinDistance disagrees with Distance")
					return
				}
				j := i % len(partners)
				if !nodeResultsEqual(NodePrepared(pg, prepared[j], sc), wantNodes[j][0]) ||
					!nodeResultsEqual(NodePrepared(prepared[j], pg, sc), wantNodes[j][1]) {
					t.Errorf("NodePrepared with %s diverges from NodeSoups", partners[j].WKT())
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestAreaSamplesMatchesRelateUsage(t *testing.T) {
	donut := Polygon{
		Shell: Ring{Coords: []Point{Pt(0, 0), Pt(8, 0), Pt(8, 8), Pt(0, 8)}},
		Holes: []Ring{{Coords: []Point{Pt(3, 3), Pt(5, 3), Pt(5, 5), Pt(3, 5)}}},
	}
	for _, g := range []Geometry{
		Rect(0, 0, 2, 2),
		donut,
		MultiPolygon{Polygons: []Polygon{Rect(0, 0, 1, 1), Rect(3, 3, 4, 4)}},
	} {
		samples := AreaSamples(g)
		if len(samples) == 0 {
			t.Fatalf("no area samples for %s", g.WKT())
		}
		for _, p := range samples {
			if Locate(p, g) != Interior {
				t.Fatalf("sample %v of %s is not interior", p, g.WKT())
			}
		}
	}
	if AreaSamples(Line(Pt(0, 0), Pt(1, 1))) != nil {
		t.Fatal("lineal geometry must have no area samples")
	}
}
