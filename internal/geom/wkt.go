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
// the EMPTY keyword. It is the one-source case of ParseWKTAll.
func ParseWKT(s string) (Geometry, error) {
	gs, err := ParseWKTAll([]string{s})
	if err != nil {
		return nil, err
	}
	return gs[0], nil
}

// ParseWKTAll parses every source as ParseWKT would. Beside the one
// allocation each geometry takes, it allocates a fixed number of arrays
// however many coordinate sequences the sources hold: a counting pass
// sizes one backing array per table (coordinates, holes, member lines,
// member polygons), and every sequence is a capacity-capped window of
// its table, so an append to one geometry's slice can never overwrite
// another's. A POINT keeps no slice. The arrays stay reachable while any
// of the returned geometries is.
//
// At the first source that fails to parse, ParseWKTAll stops and returns
// the geometries of the sources before it with that source's error, so
// the length of the result is the index of the failing source.
func ParseWKTAll(srcs []string) ([]Geometry, error) {
	var z wktSizes
	for _, s := range srcs {
		z.add(sizeWKT(s))
	}
	p := wktParser{
		points: make([]Point, 0, z.points),
		holes:  make([]Ring, 0, z.holes),
		lines:  make([]LineString, 0, z.lines),
		polys:  make([]Polygon, 0, z.polys),
	}
	out := make([]Geometry, 0, len(srcs))
	for _, s := range srcs {
		p.src, p.pos = s, 0
		g, err := p.parse()
		if err != nil {
			return out, fmt.Errorf("geom: parsing WKT %s: %w", quoteClipped(s), err)
		}
		out = append(out, g)
	}
	return out, nil
}

// maxQuoted is the most bytes of its input a parse error quotes.
const maxQuoted = 64

// quoteClipped quotes s for an error message as %q would. Past maxQuoted
// bytes it quotes only the first maxQuoted and adds the length, so an
// error never copies a large input.
func quoteClipped(s string) string {
	if len(s) <= maxQuoted {
		return strconv.Quote(s)
	}
	return fmt.Sprintf("%q... (%d bytes)", s[:maxQuoted], len(s))
}

// MustParseWKT is ParseWKT that panics on error; for tests and static data.
func MustParseWKT(s string) Geometry {
	g, err := ParseWKT(s)
	if err != nil {
		panic(err)
	}
	return g
}

// wktSizes counts the table elements one or more sources take.
type wktSizes struct {
	points, holes, lines, polys int
}

func (z *wktSizes) add(o wktSizes) {
	z.points += o.points
	z.holes += o.holes
	z.lines += o.lines
	z.polys += o.polys
}

// sizeWKT counts the table elements s takes. The count is exact for the
// WKT this package writes. Every geometry but a POINT has one coordinate
// more than s has commas, since a comma separates each two coordinates
// of a sequence and each two sequences, lines or polygons. A POLYGON
// opens one parenthesis per ring besides its own, a MULTILINESTRING one
// per line, and a MULTIPOLYGON one per polygon (those at depth two) and
// one per ring. Other text may be miscounted, which costs the parse an
// allocation but never changes its result. Each count is capped at what
// valid text of s's length could hold, so text that will not parse
// cannot reserve more: a coordinate takes at least 4 bytes ("0 0,"), a
// ring or a line 6 ("(0 0),"), a polygon 8 ("((0 0)),").
func sizeWKT(s string) wktSizes {
	p := wktParser{src: s}
	kw := p.ident()
	if p.empty() {
		return wktSizes{}
	}
	z := wktSizes{points: strings.Count(s, ",") + 1}
	switch {
	case strings.EqualFold(kw, "MULTIPOINT"), strings.EqualFold(kw, "LINESTRING"):
	case strings.EqualFold(kw, "MULTILINESTRING"):
		z.lines = strings.Count(s, "(") - 1
	case strings.EqualFold(kw, "POLYGON"):
		z.holes = strings.Count(s, "(") - 2
	case strings.EqualFold(kw, "MULTIPOLYGON"):
		z.polys = depthTwoOpens(s)
		z.holes = strings.Count(s, "(") - 1 - 2*z.polys
	default:
		return wktSizes{}
	}
	return wktSizes{
		points: max(0, min(z.points, len(s)/4+1)),
		holes:  max(0, min(z.holes, len(s)/6+1)),
		lines:  max(0, min(z.lines, len(s)/6+1)),
		polys:  max(0, min(z.polys, len(s)/8+1)),
	}
}

// depthTwoOpens counts the parentheses s opens at depth two.
func depthTwoOpens(s string) int {
	n, depth := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			if depth++; depth == 2 {
				n++
			}
		case ')':
			depth--
		}
	}
	return n
}

// wktParser parses one source at a time; ParseWKTAll points it at each
// in turn. Coordinates, holes, lines and polygons are appended to its
// tables, and each sequence is handed out as a capped window of them.
type wktParser struct {
	src string
	pos int

	points []Point
	holes  []Ring
	lines  []LineString
	polys  []Polygon
}

func (p *wktParser) parse() (Geometry, error) {
	kw := strings.ToUpper(p.ident())
	switch kw {
	case "POINT":
		if p.empty() {
			return MultiPoint{}, nil
		}
		// Parsed into a one-element buffer: a POINT keeps no slice.
		var buf [1]Point
		coords, err := p.appendSeq(buf[:0])
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
		start := len(p.lines)
		for {
			coords, err := p.coordSeq()
			if err != nil {
				return nil, err
			}
			p.lines = append(p.lines, LineString{Coords: coords})
			if !p.accept(',') {
				break
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return MultiLineString{Lines: capped(p.lines[start:])}, nil
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
		start := len(p.polys)
		for {
			poly, err := p.polygonBody()
			if err != nil {
				return nil, err
			}
			p.polys = append(p.polys, poly)
			if !p.accept(',') {
				break
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return MultiPolygon{Polygons: capped(p.polys[start:])}, nil
	case "":
		return nil, fmt.Errorf("empty input")
	default:
		return nil, fmt.Errorf("unsupported geometry keyword %s", quoteClipped(kw))
	}
}

// polygonBody parses "(ring, ring, ...)". The shell is kept in the
// Polygon itself and only holes take the hole table.
func (p *wktParser) polygonBody() (Polygon, error) {
	if err := p.expect('('); err != nil {
		return Polygon{}, err
	}
	shell, err := p.ring()
	if err != nil {
		return Polygon{}, err
	}
	start := len(p.holes)
	for p.accept(',') {
		h, err := p.ring()
		if err != nil {
			return Polygon{}, err
		}
		p.holes = append(p.holes, h)
	}
	if err := p.expect(')'); err != nil {
		return Polygon{}, err
	}
	poly := Polygon{Shell: shell}
	if len(p.holes) > start {
		poly.Holes = capped(p.holes[start:])
	}
	return poly, nil
}

// ring parses one ring's coordinate sequence and drops its explicit
// closing coordinate if present.
func (p *wktParser) ring() (Ring, error) {
	coords, err := p.coordSeq()
	if err != nil {
		return Ring{}, err
	}
	if len(coords) > 1 && coords[0].Equal(coords[len(coords)-1]) {
		coords = coords[:len(coords)-1]
	}
	return Ring{Coords: coords}, nil
}

func (p *wktParser) multipointBody() ([]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	start := len(p.points)
	for {
		paren := p.accept('(')
		pt, err := p.coord()
		if err != nil {
			return nil, err
		}
		p.points = append(p.points, pt)
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
	return capped(p.points[start:]), nil
}

// coordSeq parses "(x y, x y, ...)" into a window of the coordinate
// table.
func (p *wktParser) coordSeq() ([]Point, error) {
	start := len(p.points)
	var err error
	if p.points, err = p.appendSeq(p.points); err != nil {
		return nil, err
	}
	return capped(p.points[start:]), nil
}

// appendSeq parses "(x y, x y, ...)" and appends its coordinates to dst.
// It returns the extended dst even on error.
func (p *wktParser) appendSeq(dst []Point) ([]Point, error) {
	if err := p.expect('('); err != nil {
		return dst, err
	}
	for {
		pt, err := p.coord()
		if err != nil {
			return dst, err
		}
		dst = append(dst, pt)
		if !p.accept(',') {
			break
		}
	}
	return dst, p.expect(')')
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
	v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if ne, ok := err.(*strconv.NumError); ok && len(ne.Num) > maxQuoted {
		// ParseFloat's own error would quote the whole token.
		return 0, fmt.Errorf("strconv.ParseFloat: parsing %s: %w", quoteClipped(ne.Num), ne.Err)
	}
	return v, err
}
