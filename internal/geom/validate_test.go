package geom

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestValidateOK(t *testing.T) {
	good := []Geometry{
		Pt(1, 2),
		MultiPoint{Points: []Point{Pt(0, 0), Pt(1, 1)}},
		Line(Pt(0, 0), Pt(1, 1), Pt(2, 0)),
		MultiLineString{Lines: []LineString{Line(Pt(0, 0), Pt(1, 0))}},
		Rect(0, 0, 4, 4),
		Polygon{
			Shell: Ring{Coords: []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}},
			Holes: []Ring{{Coords: []Point{Pt(2, 2), Pt(4, 2), Pt(4, 4), Pt(2, 4)}}},
		},
		MultiPolygon{Polygons: []Polygon{Rect(0, 0, 1, 1), Rect(3, 3, 4, 4)}},
	}
	for _, g := range good {
		if err := Validate(g); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", g.WKT(), err)
		}
	}
}

func TestValidateTooFewCoords(t *testing.T) {
	cases := []Geometry{
		LineString{Coords: []Point{Pt(0, 0)}},
		Polygon{Shell: Ring{Coords: []Point{Pt(0, 0), Pt(1, 1)}}},
	}
	for _, g := range cases {
		if err := Validate(g); !errors.Is(err, ErrTooFewCoords) {
			t.Errorf("Validate = %v, want ErrTooFewCoords", err)
		}
	}
}

func TestValidateNonFinite(t *testing.T) {
	nan := math.NaN()
	if err := Validate(Pt(nan, 0)); !errors.Is(err, ErrNonFiniteCoord) {
		t.Errorf("NaN point: %v", err)
	}
	if err := Validate(Line(Pt(0, 0), Pt(math.Inf(1), 0))); !errors.Is(err, ErrNonFiniteCoord) {
		t.Errorf("Inf line: %v", err)
	}
}

func TestValidateRepeatedCoord(t *testing.T) {
	if err := Validate(Line(Pt(0, 0), Pt(0, 0), Pt(1, 1))); !errors.Is(err, ErrRepeatedCoord) {
		t.Errorf("repeated line coord: %v", err)
	}
	bowtieDegenerate := Poly(Pt(0, 0), Pt(0, 0), Pt(1, 1))
	if err := Validate(bowtieDegenerate); !errors.Is(err, ErrRepeatedCoord) {
		t.Errorf("degenerate ring edge: %v", err)
	}
}

func TestValidateSelfIntersectingRing(t *testing.T) {
	// Bowtie: edges cross in the middle.
	bowtie := Poly(Pt(0, 0), Pt(4, 4), Pt(4, 0), Pt(0, 4))
	if err := Validate(bowtie); !errors.Is(err, ErrRingNotSimple) {
		t.Errorf("bowtie: %v, want ErrRingNotSimple", err)
	}
	// Ring with a spike (collinear overlap).
	spike := Poly(Pt(0, 0), Pt(4, 0), Pt(2, 0), Pt(2, 3))
	if err := Validate(spike); !errors.Is(err, ErrRingNotSimple) {
		t.Errorf("spike: %v, want ErrRingNotSimple", err)
	}
}

func TestValidateHoleOutside(t *testing.T) {
	poly := Polygon{
		Shell: Ring{Coords: []Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)}},
		Holes: []Ring{{Coords: []Point{Pt(10, 10), Pt(12, 10), Pt(12, 12), Pt(10, 12)}}},
	}
	if err := Validate(poly); !errors.Is(err, ErrHoleOutside) {
		t.Errorf("outside hole: %v, want ErrHoleOutside", err)
	}
}

func TestValidateWrappedContext(t *testing.T) {
	// Errors from nested parts must carry positional context.
	mp := MultiPolygon{Polygons: []Polygon{
		Rect(0, 0, 1, 1),
		{Shell: Ring{Coords: []Point{Pt(0, 0), Pt(1, 1)}}},
	}}
	err := Validate(mp)
	if err == nil || !errors.Is(err, ErrTooFewCoords) {
		t.Fatalf("err = %v", err)
	}
	ml := MultiLineString{Lines: []LineString{
		Line(Pt(0, 0), Pt(1, 1)),
		{Coords: []Point{Pt(0, 0)}},
	}}
	if err := Validate(ml); !errors.Is(err, ErrTooFewCoords) {
		t.Fatalf("multiline err = %v", err)
	}
}

// validateRingPairs is validateRing as the all-pairs loop it replaced:
// the oracle whose first error the sweep must return.
func validateRingPairs(r Ring) error {
	if len(r.Coords) < 3 {
		return fmt.Errorf("%w: ring needs >= 3, has %d", ErrTooFewCoords, len(r.Coords))
	}
	if err := validateFinite(r.Coords); err != nil {
		return err
	}
	n := r.NumSegments()
	for i := 0; i < n; i++ {
		si := r.Segment(i)
		if si.IsDegenerate() {
			return fmt.Errorf("%w: ring edge %d", ErrRepeatedCoord, i)
		}
		for j := i + 1; j < n; j++ {
			adjacent := j == i+1 || (i == 0 && j == n-1)
			kind, p0, p1 := si.Intersect(r.Segment(j))
			switch kind {
			case IntersectionNone:
			case IntersectionPoint:
				if !adjacent {
					return fmt.Errorf("%w: edges %d and %d meet at (%v, %v)",
						ErrRingNotSimple, i, j, p0.X, p0.Y)
				}
			case IntersectionOverlap:
				return fmt.Errorf("%w: edges %d and %d overlap from (%v, %v) to (%v, %v)",
					ErrRingNotSimple, i, j, p0.X, p0.Y, p1.X, p1.Y)
			}
		}
	}
	return nil
}

// validatePolygonPairs is validatePolygon over validateRingPairs, with
// each hole vertex located by a LocateInRing scan of the shell.
func validatePolygonPairs(p Polygon) error {
	if err := validateRingPairs(p.Shell); err != nil {
		return fmt.Errorf("shell: %w", err)
	}
	for i, h := range p.Holes {
		if err := validateRingPairs(h); err != nil {
			return fmt.Errorf("hole %d: %w", i, err)
		}
		for _, c := range h.Coords {
			if LocateInRing(c, p.Shell) == Exterior {
				return fmt.Errorf("%w: hole %d vertex (%v, %v)", ErrHoleOutside, i, c.X, c.Y)
			}
		}
	}
	return nil
}

// TestValidateMatchesPairLoop is the differential test of the sweep and
// the hole edge tree: on random rings over a coarse grid (repeated
// vertices, self-touches and collinear overlaps are common), on valid
// star-shaped rings with a vertex moved onto another edge or vertex, on
// rings nudged within and just beyond Eps, and on polygons whose holes
// lie inside, across or outside the shell, validatePolygon must return
// exactly the error of the all-pairs loop.
func TestValidateMatchesPairLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	grid := func(n, size int) Ring {
		c := make([]Point, n)
		for i := range c {
			c[i] = Pt(float64(rng.Intn(size)), float64(rng.Intn(size)))
		}
		return Ring{Coords: c}
	}
	star := func(n int, cx, cy, r float64) Ring {
		c := make([]Point, n)
		for i := range c {
			a := 2 * math.Pi * float64(i) / float64(n)
			rad := r * (0.5 + rng.Float64()/2)
			c[i] = Pt(cx+math.Round(rad*math.Cos(a)*8)/8, cy+math.Round(rad*math.Sin(a)*8)/8)
		}
		return Ring{Coords: c}
	}
	nudge := func(r Ring) Ring {
		c := append([]Point(nil), r.Coords...)
		for i := range c {
			if rng.Intn(3) == 0 {
				d := []float64{-1.5e-9, -9e-10, -3e-10, 3e-10, 9e-10, 1.5e-9}
				c[i].X += d[rng.Intn(len(d))]
				c[i].Y += d[rng.Intn(len(d))]
			}
		}
		return Ring{Coords: c}
	}
	touch := func(r Ring) Ring {
		c := append([]Point(nil), r.Coords...)
		i, j := rng.Intn(len(c)), rng.Intn(len(c))
		if rng.Intn(2) == 0 {
			c[i] = c[j]
		} else {
			k := (j + 1) % len(c)
			c[i] = Pt((c[j].X+c[k].X)/2, (c[j].Y+c[k].Y)/2)
		}
		return Ring{Coords: c}
	}
	var cases []Polygon
	for trial := 0; trial < 2000; trial++ {
		cases = append(cases,
			Polygon{Shell: grid(3+rng.Intn(10), 5)},
			Polygon{Shell: touch(star(5+rng.Intn(40), 0, 0, 10))},
			Polygon{Shell: nudge(grid(3+rng.Intn(8), 3))},
			Polygon{Shell: nudge(star(5+rng.Intn(20), 0, 0, 4))},
		)
		shell := star(6+rng.Intn(30), 0, 0, 10)
		holes := make([]Ring, 1+rng.Intn(3))
		for h := range holes {
			cx, cy := float64(rng.Intn(21)-10), float64(rng.Intn(21)-10)
			switch rng.Intn(3) {
			case 0:
				holes[h] = star(3+rng.Intn(8), cx, cy, 1+3*rng.Float64())
			case 1:
				holes[h] = Ring{Coords: []Point{shell.Coords[0], Pt(cx/4, cy/4), Pt(cx/4+1, cy/4)}}
			default:
				holes[h] = touch(star(3+rng.Intn(8), cx/3, cy/3, 2))
			}
		}
		cases = append(cases, Polygon{Shell: shell, Holes: holes})
	}
	counts := map[string]int{}
	for _, p := range cases {
		want, got := fmt.Sprint(validatePolygonPairs(p)), fmt.Sprint(validatePolygon(p))
		if got != want {
			t.Fatalf("validatePolygon = %s, pair loop %s\npolygon %s", got, want, p.WKT())
		}
		kind := "valid"
		for _, e := range []error{ErrRepeatedCoord, ErrRingNotSimple, ErrHoleOutside} {
			if errors.Is(validatePolygon(p), e) {
				kind = e.Error()
			}
		}
		counts[kind]++
	}
	t.Log(counts)
	// Every outcome must be exercised, or the comparison proves little.
	for _, kind := range []string{"valid", ErrRepeatedCoord.Error(), ErrRingNotSimple.Error(), ErrHoleOutside.Error()} {
		if counts[kind] < 50 {
			t.Errorf("only %d cases end %q: %v", counts[kind], kind, counts)
		}
	}
}

// TestValidateLargeRing validates a polygon whose shell is a
// 100,000-vertex circle and whose hole is a 5,000-vertex one. The
// all-pairs loop takes minutes over the shell, and a LocateInRing scan
// per hole vertex seconds; the sweep and the shell's edge tree take
// well under a second.
func TestValidateLargeRing(t *testing.T) {
	circle := func(n int, r float64) Ring {
		c := make([]Point, n)
		for i := range c {
			a := 2 * math.Pi * float64(i) / float64(n)
			c[i] = Pt(r*math.Cos(a), r*math.Sin(a))
		}
		return Ring{Coords: c}
	}
	p := Polygon{Shell: circle(100000, 1000), Holes: []Ring{circle(5000, 500)}}
	start := time.Now()
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("validating took %v", d)
	}
}
