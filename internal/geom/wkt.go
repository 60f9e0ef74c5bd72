package geom

import (
	"fmt"
	"strconv"
	"strings"
)

// WKT implements Geometry for Point.
func (p Point) WKT() string { return string(AppendWKT(nil, p)) }

// WKT implements Geometry for MultiPoint.
func (m MultiPoint) WKT() string { return string(AppendWKT(nil, m)) }

// WKT implements Geometry for LineString.
func (l LineString) WKT() string { return string(AppendWKT(nil, l)) }

// WKT implements Geometry for MultiLineString.
func (m MultiLineString) WKT() string { return string(AppendWKT(nil, m)) }

// WKT implements Geometry for Polygon.
func (p Polygon) WKT() string { return string(AppendWKT(nil, p)) }

// WKT implements Geometry for MultiPolygon.
func (m MultiPolygon) WKT() string { return string(AppendWKT(nil, m)) }

// AppendWKT appends the well-known text of g to dst and returns the
// extended buffer. Coordinates are shortest round-trip decimals ('g', -1),
// rings repeat their first coordinate to close, and empty geometries
// render as "<TYPE> EMPTY". Geometries from outside this package append
// their own WKT().
func AppendWKT(dst []byte, g Geometry) []byte {
	switch g := g.(type) {
	case Point:
		dst = appendCoord(append(dst, "POINT ("...), g)
		return append(dst, ')')
	case MultiPoint:
		if g.IsEmpty() {
			return append(dst, "MULTIPOINT EMPTY"...)
		}
		dst = append(dst, "MULTIPOINT ("...)
		for i, p := range g.Points {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendCoord(append(dst, '('), p)
			dst = append(dst, ')')
		}
		return append(dst, ')')
	case LineString:
		if g.IsEmpty() {
			return append(dst, "LINESTRING EMPTY"...)
		}
		return appendCoordSeq(append(dst, "LINESTRING "...), g.Coords, false)
	case MultiLineString:
		if g.IsEmpty() {
			return append(dst, "MULTILINESTRING EMPTY"...)
		}
		dst = append(dst, "MULTILINESTRING ("...)
		for i, l := range g.Lines {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendCoordSeq(dst, l.Coords, false)
		}
		return append(dst, ')')
	case Polygon:
		if g.IsEmpty() {
			return append(dst, "POLYGON EMPTY"...)
		}
		return appendPolyBody(append(dst, "POLYGON "...), g)
	case MultiPolygon:
		if g.IsEmpty() {
			return append(dst, "MULTIPOLYGON EMPTY"...)
		}
		dst = append(dst, "MULTIPOLYGON ("...)
		for i, p := range g.Polygons {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendPolyBody(dst, p)
		}
		return append(dst, ')')
	default:
		return append(dst, g.WKT()...)
	}
}

func appendPolyBody(dst []byte, p Polygon) []byte {
	dst = appendCoordSeq(append(dst, '('), p.Shell.Coords, true)
	for _, h := range p.Holes {
		dst = appendCoordSeq(append(dst, ", "...), h.Coords, true)
	}
	return append(dst, ')')
}

// appendCoordSeq appends "(x y, x y, ...)"; closed repeats the first
// coordinate at the end, as WKT rings require.
func appendCoordSeq(dst []byte, coords []Point, closed bool) []byte {
	dst = append(dst, '(')
	for i, p := range coords {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendCoord(dst, p)
	}
	if closed && len(coords) > 0 {
		dst = appendCoord(append(dst, ", "...), coords[0])
	}
	return append(dst, ')')
}

func appendCoord(dst []byte, p Point) []byte {
	dst = strconv.AppendFloat(dst, p.X, 'g', -1, 64)
	return strconv.AppendFloat(append(dst, ' '), p.Y, 'g', -1, 64)
}

// ParseWKT parses a well-known-text geometry. It accepts the subset of WKT
// produced by this package: POINT, MULTIPOINT (with or without per-point
// parentheses), LINESTRING, MULTILINESTRING, POLYGON, MULTIPOLYGON, and
// the EMPTY keyword.
func ParseWKT(s string) (Geometry, error) {
	p := &wktParser{src: s}
	g, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("geom: parsing WKT %q: %w", s, err)
	}
	return g, nil
}

// MustParseWKT is ParseWKT that panics on error; for tests and static data.
func MustParseWKT(s string) Geometry {
	g, err := ParseWKT(s)
	if err != nil {
		panic(err)
	}
	return g
}

type wktParser struct {
	src string
	pos int
}

func (p *wktParser) parse() (Geometry, error) {
	kw := strings.ToUpper(p.ident())
	switch kw {
	case "POINT":
		if p.empty() {
			return MultiPoint{}, nil
		}
		coords, err := p.coordSeq()
		if err != nil {
			return nil, err
		}
		if len(coords) != 1 {
			return nil, fmt.Errorf("POINT needs exactly 1 coordinate, got %d", len(coords))
		}
		return coords[0], nil
	case "MULTIPOINT":
		if p.empty() {
			return MultiPoint{}, nil
		}
		pts, err := p.multipointBody()
		if err != nil {
			return nil, err
		}
		return MultiPoint{Points: pts}, nil
	case "LINESTRING":
		if p.empty() {
			return LineString{}, nil
		}
		coords, err := p.coordSeq()
		if err != nil {
			return nil, err
		}
		return LineString{Coords: coords}, nil
	case "MULTILINESTRING":
		if p.empty() {
			return MultiLineString{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var lines []LineString
		for {
			coords, err := p.coordSeq()
			if err != nil {
				return nil, err
			}
			lines = append(lines, LineString{Coords: coords})
			if !p.accept(',') {
				break
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return MultiLineString{Lines: lines}, nil
	case "POLYGON":
		if p.empty() {
			return Polygon{}, nil
		}
		return p.polygonBody()
	case "MULTIPOLYGON":
		if p.empty() {
			return MultiPolygon{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var polys []Polygon
		for {
			poly, err := p.polygonBody()
			if err != nil {
				return nil, err
			}
			polys = append(polys, poly)
			if !p.accept(',') {
				break
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return MultiPolygon{Polygons: polys}, nil
	case "":
		return nil, fmt.Errorf("empty input")
	default:
		return nil, fmt.Errorf("unsupported geometry keyword %q", kw)
	}
}

func (p *wktParser) polygonBody() (Polygon, error) {
	if err := p.expect('('); err != nil {
		return Polygon{}, err
	}
	var rings []Ring
	for {
		coords, err := p.coordSeq()
		if err != nil {
			return Polygon{}, err
		}
		// Drop the explicit closing coordinate if present.
		if len(coords) > 1 && coords[0].Equal(coords[len(coords)-1]) {
			coords = coords[:len(coords)-1]
		}
		rings = append(rings, Ring{Coords: coords})
		if !p.accept(',') {
			break
		}
	}
	if err := p.expect(')'); err != nil {
		return Polygon{}, err
	}
	poly := Polygon{Shell: rings[0]}
	if len(rings) > 1 {
		poly.Holes = rings[1:]
	}
	return poly, nil
}

func (p *wktParser) multipointBody() ([]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var pts []Point
	for {
		paren := p.accept('(')
		pt, err := p.coord()
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
		if paren {
			if err := p.expect(')'); err != nil {
				return nil, err
			}
		}
		if !p.accept(',') {
			break
		}
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return pts, nil
}

func (p *wktParser) coordSeq() ([]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var coords []Point
	for {
		pt, err := p.coord()
		if err != nil {
			return nil, err
		}
		coords = append(coords, pt)
		if !p.accept(',') {
			break
		}
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return coords, nil
}

func (p *wktParser) coord() (Point, error) {
	x, err := p.number()
	if err != nil {
		return Point{}, err
	}
	y, err := p.number()
	if err != nil {
		return Point{}, err
	}
	return Point{x, y}, nil
}

func (p *wktParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' ||
		p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *wktParser) ident() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			p.pos++
		} else {
			break
		}
	}
	return p.src[start:p.pos]
}

// empty consumes the EMPTY keyword if present.
func (p *wktParser) empty() bool {
	save := p.pos
	if strings.EqualFold(p.ident(), "EMPTY") {
		return true
	}
	p.pos = save
	return false
}

func (p *wktParser) accept(c byte) bool {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *wktParser) expect(c byte) error {
	if !p.accept(c) {
		got := "end of input"
		if p.pos < len(p.src) {
			got = fmt.Sprintf("%q", p.src[p.pos])
		}
		return fmt.Errorf("expected %q at offset %d, got %s", string(c), p.pos, got)
	}
	return nil
}

func (p *wktParser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
			c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	if start == p.pos {
		return 0, fmt.Errorf("expected number at offset %d", start)
	}
	return strconv.ParseFloat(p.src[start:p.pos], 64)
}
