package geom

import (
	"fmt"
	"math"
	"slices"
)

// Prepared caches the derived structures of a geometry that the relate /
// distance / locate machinery otherwise recomputes on every call: the
// envelope, the Soup decomposition, interior sample points, the centroid,
// and an edge tree (an STR-packed R-tree over segment envelopes). The edge
// tree turns the full-scan hot loops into indexed queries:
//
//   - Locate: a stabbing query finds the edges whose envelope can contain
//     the probe instead of testing every segment, and a Y-interval
//     traversal finds the ray-crossing edges;
//   - noding: a tree join enumerates candidate segment pairs instead of
//     the all-pairs sweep;
//   - distance decisions: a dual-tree search that prunes on envelope
//     lower bounds against the threshold replaces the brute-force
//     segment×segment scan.
//
// Every query is engineered to perform the same floating-point arithmetic
// as its unprepared counterpart, in the same order, so results are exactly
// identical — the tree only prunes work that provably cannot contribute.
// A Prepared is immutable after Prepare returns and safe for concurrent
// use by any number of goroutines.
type Prepared struct {
	g     Geometry
	empty bool
	env   Envelope
	soup  *Soup
	tree  segTree

	// Component tables for Locate. rings/polys describe areal components
	// (tree entry slots index rings); lines describe lineal components
	// (slots index lines).
	rings []prepRing
	polys []prepPoly
	lines []prepLine

	// Cached sample points and centroid.
	areaSamples []Point // one interior point per polygonal component
	distSamples []Point // pointSamples(soup), for containment short-circuits
	allPoints   []Point // InteriorPoints ++ BoundaryPoints, for noding splits
	centroid    Point
}

// prepRing is one polygon ring (shell or hole); its slot in the edge tree
// carries the per-ring on-boundary and ray-parity flags.
type prepRing struct {
	env Envelope
}

// prepPoly is one polygonal component: a contiguous run of rings, shell
// first.
type prepPoly struct {
	ringFirst int32
	ringCount int32
}

// prepLine is one lineal component.
type prepLine struct {
	first, last Point
	closed      bool
	empty       bool
}

// Flag bits used by the Locate traversals (one byte per slot).
const (
	prepParityBit  = 1 << 0 // ray-crossing parity (areal slots)
	prepOnSegBit   = 1 << 1 // probe lies on some edge of the slot
	prepVisitedBit = 1 << 2 // slot already folded into the running result
)

// Prepare builds the derived structures of g once, for reuse across many
// relate/distance/locate calls against the same geometry. Preparing a nil
// or empty geometry is allowed and yields an empty Prepared.
func Prepare(g Geometry) *Prepared {
	return PrepareAll([]Geometry{g})[0]
}

// PrepareAll prepares every geometry of gs, each exactly as Prepare would,
// in a fixed number of allocations however long gs is. A counting pass
// sizes one backing array per table (soup segments, points, edge-tree
// entries and nodes, rings, lines, polygons) and one slice holds every
// Prepared beside its Soup; each Prepared then takes capacity-capped
// windows of those arrays. The arrays stay reachable while any of the
// returned values is.
func PrepareAll(gs []Geometry) []*Prepared {
	var total prepSizes
	for _, g := range gs {
		total.add(sizesOf(g))
	}
	ar := prepArena{
		segs:    make([]TaggedSegment, 0, total.edges),
		points:  make([]Point, 0, total.points),
		entries: make([]segEntry, 0, total.edges),
		nodes:   make([]segNode, 0, total.nodes),
		rings:   make([]prepRing, 0, total.rings),
		lines:   make([]prepLine, 0, total.lines),
		polys:   make([]prepPoly, 0, total.polys),
	}
	blocks := make([]prepBlock, len(gs))
	out := make([]*Prepared, len(gs))
	for i, g := range gs {
		out[i] = ar.prepare(&blocks[i], g)
	}
	return out
}

// prepBlock is one geometry's Prepared and its Soup, allocated together.
type prepBlock struct {
	p Prepared
	s Soup
}

// prepSizes sizes one geometry's share of the arena tables. The edge
// count bounds the soup segments (degenerate edges are not soup
// segments) and the point count bounds the points: interior points twice
// (soup and distance samples), up to two boundary points per line, one
// area sample per polygon, and one distance sample per soup segment.
type prepSizes struct {
	edges, points, nodes, rings, lines, polys int
}

func (z *prepSizes) add(o prepSizes) {
	z.edges += o.edges
	z.points += o.points
	z.nodes += o.nodes
	z.rings += o.rings
	z.lines += o.lines
	z.polys += o.polys
}

func sizesOf(g Geometry) prepSizes {
	var z prepSizes
	addLine := func(l LineString) {
		z.lines++
		z.edges += l.NumSegments()
		z.points += 2
	}
	addPoly := func(p Polygon) {
		z.polys++
		z.points++
		if !p.IsEmpty() {
			z.rings += 1 + len(p.Holes)
			for ri := 0; ri <= len(p.Holes); ri++ {
				z.edges += p.ring(ri).NumSegments()
			}
		}
	}
	switch t := g.(type) {
	case Point:
		z.points = 2
	case MultiPoint:
		z.points = 2 * len(t.Points)
	case LineString:
		addLine(t)
	case MultiLineString:
		for _, l := range t.Lines {
			addLine(l)
		}
	case Polygon:
		addPoly(t)
	case MultiPolygon:
		for _, p := range t.Polygons {
			addPoly(p)
		}
	}
	z.points += z.edges
	z.nodes = segTreeNodes(z.edges)
	return z
}

// prepArena holds the backing arrays PrepareAll carves its geometries'
// tables from.
type prepArena struct {
	segs    []TaggedSegment
	points  []Point
	entries []segEntry
	nodes   []segNode
	rings   []prepRing
	lines   []prepLine
	polys   []prepPoly
}

// grab returns an empty window with room for n elements at the end of
// *table and advances the table past it. The counting pass sized every
// table, so a table without room is a miscount and panics.
func grab[T any](table *[]T, n int) []T {
	t := *table
	*table = t[:len(t)+n]
	return t[len(t) : len(t) : len(t)+n]
}

// capped returns s with its capacity cut to its length, so an append by a
// holder of the window can never overwrite a neighbour's elements.
func capped[T any](s []T) []T { return s[:len(s):len(s)] }

// prepare builds the Prepared of g in b from the arena's tables. It
// takes g's share of them by counting g again: sizesOf only walks ring
// and line headers, which is cheaper than keeping every geometry's
// sizes from the counting pass.
func (ar *prepArena) prepare(b *prepBlock, g Geometry) *Prepared {
	pg := &b.p
	pg.g, pg.empty, pg.env, pg.tree.root = g, g == nil || g.IsEmpty(), EmptyEnvelope(), -1
	if g == nil {
		return pg
	}
	z := sizesOf(g)
	pg.env = g.Envelope()
	pg.soup = &b.s
	segs, pts := fillSoup(pg.soup, g, grab(&ar.segs, z.edges), grab(&ar.points, z.points))
	pg.centroid = Centroid(g)
	soupPts := len(pts)
	pts = appendAreaSamples(pts, g)
	areaEnd := len(pts)
	pts = append(pts, pg.soup.InteriorPoints...)
	for _, ts := range segs {
		pts = append(pts, ts.Seg.A)
	}
	pg.allPoints = capped(pts[:soupPts])
	pg.areaSamples = capped(pts[soupPts:areaEnd])
	pg.distSamples = capped(pts[areaEnd:])

	// Enumerate the edges in exactly fillSoup's order, assigning each
	// non-degenerate edge its index into soup.Segments. Degenerate edges
	// (skipped by the soup) still enter the tree with soup == -1: the
	// unprepared Locate scans them too, so the stabbing and ray queries
	// must see them; noding and distance filter them out.
	entries := grab(&ar.entries, z.edges)
	rings, lines, polys := grab(&ar.rings, z.rings), grab(&ar.lines, z.lines), grab(&ar.polys, z.polys)
	soupIdx := int32(0)
	addSeg := func(seg Segment, slot int32) {
		si := int32(-1)
		if !seg.IsDegenerate() {
			si = soupIdx
			soupIdx++
		}
		entries = append(entries, segEntry{seg: seg, env: seg.Envelope(), slot: slot, soup: si})
	}
	addLine := func(l LineString) {
		slot := int32(len(lines))
		ln := prepLine{empty: len(l.Coords) == 0, closed: l.IsClosed()}
		if len(l.Coords) > 0 {
			ln.first, ln.last = l.Coords[0], l.Coords[len(l.Coords)-1]
		}
		lines = append(lines, ln)
		for i := 0; i < l.NumSegments(); i++ {
			addSeg(l.Segment(i), slot)
		}
	}
	addPoly := func(p Polygon) {
		comp := prepPoly{ringFirst: int32(len(rings))}
		if !p.IsEmpty() {
			for ri := 0; ri <= len(p.Holes); ri++ {
				r := p.ring(ri)
				slot := int32(len(rings))
				rings = append(rings, prepRing{env: r.Envelope()})
				for i := 0; i < r.NumSegments(); i++ {
					addSeg(r.Segment(i), slot)
				}
			}
		}
		comp.ringCount = int32(len(rings)) - comp.ringFirst
		polys = append(polys, comp)
	}
	switch t := g.(type) {
	case Point, MultiPoint:
		// Point-set only; Locate delegates to the scalar comparisons.
	case LineString:
		addLine(t)
	case MultiLineString:
		for _, l := range t.Lines {
			addLine(l)
		}
	case Polygon:
		addPoly(t)
	case MultiPolygon:
		for _, p := range t.Polygons {
			addPoly(p)
		}
	}
	if int(soupIdx) != len(pg.soup.Segments) {
		panic(fmt.Sprintf("geom: prepared edge walk found %d soup segments, the soup holds %d", soupIdx, len(pg.soup.Segments)))
	}
	pg.rings, pg.lines, pg.polys = capped(rings), capped(lines), capped(polys)
	pg.tree = buildSegTree(capped(entries), grab(&ar.nodes, z.nodes))
	return pg
}

// Geometry returns the wrapped geometry (nil for Prepare(nil)).
func (pg *Prepared) Geometry() Geometry {
	if pg == nil {
		return nil
	}
	return pg.g
}

// IsEmpty reports whether the wrapped geometry is nil or empty.
func (pg *Prepared) IsEmpty() bool { return pg == nil || pg.empty }

// Envelope returns the cached envelope.
func (pg *Prepared) Envelope() Envelope {
	if pg == nil {
		return EmptyEnvelope()
	}
	return pg.env
}

// Soup returns the cached decomposition (nil for Prepare(nil)).
func (pg *Prepared) Soup() *Soup { return pg.soup }

// Centroid returns the cached centroid.
func (pg *Prepared) Centroid() Point { return pg.centroid }

// AreaSamples returns the cached per-component interior sample points.
func (pg *Prepared) AreaSamples() []Point { return pg.areaSamples }

// NumEdges returns the number of edges held by the edge tree (a
// preparation cost statistic).
func (pg *Prepared) NumEdges() int {
	if pg == nil {
		return 0
	}
	return len(pg.tree.entries)
}

// Locate classifies p against the prepared geometry. It returns exactly
// Locate(p, pg.Geometry()) but answers through the edge tree: an
// envelope fast path rejects far probes, a stabbing query limits the
// on-boundary tests to edges whose envelope can contain p, and a
// Y-interval traversal visits only the edges a +X ray can cross. It
// borrows a pooled Scratch for the traversals; a caller locating many
// points holds one and calls LocateWith.
func (pg *Prepared) Locate(p Point) Location {
	sc := GetScratch()
	defer sc.Release()
	return pg.LocateWith(p, sc)
}

// LocateWith is Locate with the traversal buffers taken from sc.
func (pg *Prepared) LocateWith(p Point, sc *Scratch) Location {
	if pg == nil || pg.empty {
		return Exterior
	}
	// The buffered-envelope test subsumes every per-segment and
	// per-point tolerance below, so a miss here is Exterior for all
	// geometry kinds.
	if !pg.env.Buffer(Eps).ContainsPoint(p) {
		return Exterior
	}
	switch pg.g.(type) {
	case Point, MultiPoint:
		return Locate(p, pg.g)
	case LineString, MultiLineString:
		return pg.locateLineal(p, sc)
	default:
		return pg.locateAreal(p, sc)
	}
}

// locateLineal classifies p against the prepared line work, replicating
// LocateOnLineString / locateOnMultiLine (including the mod-2 endpoint
// rule) over the tree's stabbing candidates. Lines without a candidate
// edge would fail every OnSegment test, so skipping them is exact.
func (pg *Prepared) locateLineal(p Point, sc *Scratch) Location {
	cands := pg.tree.pointCandidates(p, sc)
	if len(cands) == 0 {
		return Exterior
	}
	flags := sc.flagsFor(len(pg.lines))
	for _, ei := range cands {
		e := &pg.tree.entries[ei]
		if flags[e.slot]&prepOnSegBit == 0 && e.seg.OnSegment(p) {
			flags[e.slot] |= prepOnSegBit
		}
	}
	endpointHits := 0
	interiorHit := false
	for _, ei := range cands {
		slot := pg.tree.entries[ei].slot
		if flags[slot]&prepVisitedBit != 0 {
			continue
		}
		flags[slot] |= prepVisitedBit
		if flags[slot]&prepOnSegBit == 0 {
			continue // this line answers Exterior
		}
		ln := &pg.lines[slot]
		switch {
		case ln.closed:
			interiorHit = true
		case p.DistanceTo(ln.first) <= Eps || p.DistanceTo(ln.last) <= Eps:
			endpointHits++
		default:
			interiorHit = true
		}
	}
	if endpointHits%2 == 1 {
		return Boundary
	}
	if interiorHit || endpointHits > 0 {
		return Interior
	}
	return Exterior
}

// locateAreal classifies p against the prepared polygonal components,
// replicating LocateInPolygon ring by ring. The on-boundary and
// ray-parity evidence per ring comes from the tree; the per-ring envelope
// early-exits and the hole logic are then pure flag reads.
func (pg *Prepared) locateAreal(p Point, sc *Scratch) Location {
	flags := sc.flagsFor(len(pg.rings))
	for _, ei := range pg.tree.pointCandidates(p, sc) {
		e := &pg.tree.entries[ei]
		if flags[e.slot]&prepOnSegBit == 0 && e.seg.OnSegment(p) {
			flags[e.slot] |= prepOnSegBit
		}
	}
	pg.tree.rayFlags(p, flags, sc)
	if len(pg.polys) == 1 {
		return pg.locatePoly(p, pg.polys[0], flags)
	}
	loc := Exterior
	for _, comp := range pg.polys {
		switch pg.locatePoly(p, comp, flags) {
		case Interior:
			return Interior
		case Boundary:
			loc = Boundary
		}
	}
	return loc
}

// locatePoly folds the per-ring evidence into one polygon's location,
// mirroring LocateInPolygon: the shell decides exterior/boundary, holes
// carve the interior.
func (pg *Prepared) locatePoly(p Point, comp prepPoly, flags []uint8) Location {
	if comp.ringCount == 0 {
		return Exterior
	}
	switch pg.ringLoc(p, comp.ringFirst, flags) {
	case Exterior:
		return Exterior
	case Boundary:
		return Boundary
	}
	for h := comp.ringFirst + 1; h < comp.ringFirst+comp.ringCount; h++ {
		switch pg.ringLoc(p, h, flags) {
		case Interior:
			return Exterior
		case Boundary:
			return Boundary
		}
	}
	return Interior
}

// ringLoc reads one ring's location from the traversal flags, with the
// same buffered-envelope early-exit LocateInRing performs. A ring whose
// envelope excludes p can have neither flag set (its edges' envelopes are
// contained in the ring envelope), so the order of checks is immaterial —
// it is kept for symmetry with the unprepared code.
func (pg *Prepared) ringLoc(p Point, slot int32, flags []uint8) Location {
	if !pg.rings[slot].env.Buffer(Eps).ContainsPoint(p) {
		return Exterior
	}
	f := flags[slot]
	if f&prepOnSegBit != 0 {
		return Boundary
	}
	if f&prepParityBit != 0 {
		return Interior
	}
	return Exterior
}

// WithinDistance reports whether the two prepared geometries lie within
// d of each other: exactly Distance(pg.Geometry(), o.Geometry()) <= d,
// for every d. It decides instead of measuring. Distance is never NaN
// and is +Inf for an empty operand, so d = +Inf answers true, and an
// empty operand, a NaN or a negative d false. Otherwise the containment
// short-cuts of Distance run first. Distance maps a minimum at or below
// Eps to 0, so it is within d exactly when some segment or point pair
// measures at most t = max(d, Eps): the search returns at the first such
// pair, with the arithmetic of Distance, trying the edge trees'
// segment pairs before the point loops.
func (pg *Prepared) WithinDistance(o *Prepared, d float64) bool {
	var contained int8
	return pg.within(o, d, &contained)
}

// WithinDistances is WithinDistance at two thresholds: it reports
// WithinDistance(o, near) and WithinDistance(o, far), and runs the
// containment short-cuts, which do not depend on the threshold, at most
// once. When near <= far and the pair lies within near, far needs no
// search.
func (pg *Prepared) WithinDistances(o *Prepared, near, far float64) (withinNear, withinFar bool) {
	var contained int8
	withinNear = pg.within(o, near, &contained)
	return withinNear, withinNear && near <= far || pg.within(o, far, &contained)
}

// within is WithinDistance with the outcome of the containment
// short-cuts carried in *contained: 0 until they run, then 1 when an
// operand contains a sample of the other (distance 0) and -1 when not.
func (pg *Prepared) within(o *Prepared, d float64, contained *int8) bool {
	if math.IsInf(d, 1) {
		return true
	}
	if pg.IsEmpty() || o.IsEmpty() || !(d >= 0) {
		return false
	}
	sa, sb := pg.soup, o.soup
	if *contained == 0 {
		*contained = -1
		if sa.HasArea && pg.containsAny(o.distSamples) || sb.HasArea && o.containsAny(pg.distSamples) {
			*contained = 1
		}
	}
	if *contained > 0 {
		return true
	}
	t := max(d, Eps)
	if pg.tree.root >= 0 && o.tree.root >= 0 && segPairWithin(&pg.tree, &o.tree, pg.tree.root, o.tree.root, t) {
		return true
	}
	for _, p := range sa.InteriorPoints {
		for _, tb := range sb.Segments {
			if tb.Seg.DistanceToPoint(p) <= t {
				return true
			}
		}
		for _, q := range sb.InteriorPoints {
			if p.WithinDistance(q, d) {
				return true
			}
		}
	}
	for _, q := range sb.InteriorPoints {
		for _, ta := range sa.Segments {
			if ta.Seg.DistanceToPoint(q) <= t {
				return true
			}
		}
	}
	return false
}

// containsAny reports whether any of the points is not in the exterior of
// the prepared geometry (anyPointInside against the cached envelope). It
// takes a pooled Scratch only once a point passes the envelope test.
func (pg *Prepared) containsAny(pts []Point) bool {
	env := pg.env.Buffer(Eps)
	var sc *Scratch
	found := false
	for _, p := range pts {
		if !env.ContainsPoint(p) {
			continue
		}
		if sc == nil {
			sc = GetScratch()
		}
		if pg.LocateWith(p, sc) != Exterior {
			found = true
			break
		}
	}
	if sc != nil {
		sc.Release()
	}
	return found
}

// NodePrepared is NodeSoups over two prepared geometries, written into
// sc: the candidate segment pairs come from an edge-tree join instead of
// the all-pairs envelope sweep. Candidates are visited in the same
// (i-major, j-ascending) order as NodeSoups, so the cut lists and the
// order-sensitive node-point deduplication produce identical results.
func NodePrepared(a, b *Prepared, sc *Scratch) NodeResult {
	sa, sb := a.soup, b.soup
	cutsA, cutsB := sc.resetCuts(len(sa.Segments), len(sb.Segments))
	nodeSet := pointSet{points: sc.nodes[:0]}

	for i := range sa.Segments {
		saSeg := sa.Segments[i].Seg
		ea := saSeg.Envelope().Buffer(Eps)
		js := sc.js[:0]
		for _, ei := range b.tree.envCandidates(ea, sc) {
			if s := b.tree.entries[ei].soup; s >= 0 {
				js = append(js, s)
			}
		}
		sc.js = js
		sortInt32s(js)
		for _, j := range js {
			sbSeg := sb.Segments[j].Seg
			kind, p0, p1 := saSeg.Intersect(sbSeg)
			switch kind {
			case IntersectionPoint:
				cutsA[i] = append(cutsA[i], paramOn(saSeg, p0))
				cutsB[j] = append(cutsB[j], paramOn(sbSeg, p0))
				nodeSet.add(p0)
			case IntersectionOverlap:
				for _, p := range []Point{p0, p1} {
					cutsA[i] = append(cutsA[i], paramOn(saSeg, p))
					cutsB[j] = append(cutsB[j], paramOn(sbSeg, p))
					nodeSet.add(p)
				}
			}
		}
	}
	splitAtPointsPrepared(a, cutsA, b.allPoints, &nodeSet, sc)
	splitAtPointsPrepared(b, cutsB, a.allPoints, &nodeSet, sc)

	return sc.result(sa.Segments, sb.Segments, nodeSet)
}

// splitAtPointsPrepared splits pg's segments at the other soup's isolated
// points, finding the candidate segments per point through the edge tree.
// The (segment, point) pairs are then processed in segment-major,
// point-ascending order — the visiting order of the unprepared
// splitAtPoints — so cut lists and node deduplication match exactly. Each
// pair is packed into one key, segment index high, point index low, so
// that order is the keys' numeric order.
func splitAtPointsPrepared(pg *Prepared, cuts [][]float64, pts []Point, nodeSet *pointSet, sc *Scratch) {
	if len(pts) == 0 || pg.tree.root < 0 {
		return
	}
	pairs := sc.pairs[:0]
	for pi, p := range pts {
		for _, ei := range pg.tree.pointCandidates(p, sc) {
			if s := pg.tree.entries[ei].soup; s >= 0 {
				pairs = append(pairs, uint64(s)<<32|uint64(pi))
			}
		}
	}
	sc.pairs = pairs
	slices.Sort(pairs)
	for _, pr := range pairs {
		seg := int32(pr >> 32)
		ts := pg.soup.Segments[seg]
		p := pts[uint32(pr)]
		env := ts.Seg.Envelope().Buffer(Eps)
		if env.ContainsPoint(p) && ts.Seg.OnSegment(p) {
			cuts[seg] = append(cuts[seg], paramOn(ts.Seg, p))
			nodeSet.add(p)
		}
	}
}

// AreaSamples returns one interior sample point per polygonal component
// of g, or nil for non-areal geometries. These are the witnesses the
// DE-9IM area entries are decided with.
func AreaSamples(g Geometry) []Point {
	return appendAreaSamples(nil, g)
}

// appendAreaSamples appends g's area samples (see AreaSamples) to dst.
func appendAreaSamples(dst []Point, g Geometry) []Point {
	switch t := g.(type) {
	case Polygon:
		if p, ok := polygonInteriorPoint(t); ok {
			dst = append(dst, p)
		}
	case MultiPolygon:
		for _, poly := range t.Polygons {
			if p, ok := polygonInteriorPoint(poly); ok {
				dst = append(dst, p)
			}
		}
	}
	return dst
}

// ---------------------------------------------------------------------------
// Edge tree: a flat-array STR-packed R-tree over segment envelopes.

// segTreeFan is the edge tree's node capacity.
const segTreeFan = 8

// segEntry is one leaf edge: the segment, its envelope, the Locate slot
// it reports to (ring index for polygons, line index for linestrings),
// and its index into the soup's segment list (-1 for degenerate edges,
// which only the Locate queries may see).
type segEntry struct {
	seg  Segment
	env  Envelope
	slot int32
	soup int32
}

// segNode is one tree node. Leaves reference a contiguous run of entries;
// internal nodes a contiguous run of child nodes.
type segNode struct {
	env   Envelope
	first int32
	count int32
	leaf  bool
}

// segTree is the packed tree. root is -1 for edge-less geometries.
type segTree struct {
	entries []segEntry
	nodes   []segNode
	root    int32
	// slack is how far segPairWithin grows this tree's envelopes before
	// it prunes on their distance: the root envelope's Slack.
	slack float64
}

// segTreeNodes is the number of nodes buildSegTree makes over n entries.
func segTreeNodes(n int) int {
	if n == 0 {
		return 0
	}
	level := (n + segTreeFan - 1) / segTreeFan
	total := level
	for level > 1 {
		level = (level + segTreeFan - 1) / segTreeFan
		total += level
	}
	return total
}

// buildSegTree bulk-loads the entries sort-tile-recursively: entries are
// sorted by envelope center X, tiled into vertical strips, each strip
// sorted by center Y, and packed into leaves of segTreeFan entries. Upper
// levels group consecutive nodes (the STR order keeps neighbours
// spatially close), giving a pointer-free array layout. The nodes are
// appended to nodes, which PrepareAll sizes with segTreeNodes. The order
// of entries with equal centers reaches no output: Locate folds per-slot
// flags, noding sorts its candidates, and a distance decision looks for
// any pair within its threshold.
func buildSegTree(entries []segEntry, nodes []segNode) segTree {
	t := segTree{entries: entries, nodes: nodes, root: -1}
	n := len(entries)
	if n == 0 {
		return t
	}
	slices.SortFunc(entries, func(a, b segEntry) int {
		return cmpLess(a.env.Center().X, b.env.Center().X)
	})
	leafCount := (n + segTreeFan - 1) / segTreeFan
	strips := int(math.Ceil(math.Sqrt(float64(leafCount))))
	stripSize := (n + strips - 1) / strips
	for s := 0; s < n; s += stripSize {
		e := s + stripSize
		if e > n {
			e = n
		}
		slices.SortFunc(entries[s:e], func(a, b segEntry) int {
			return cmpLess(a.env.Center().Y, b.env.Center().Y)
		})
	}
	for o := 0; o < n; o += segTreeFan {
		e := o + segTreeFan
		if e > n {
			e = n
		}
		node := segNode{leaf: true, first: int32(o), count: int32(e - o), env: EmptyEnvelope()}
		for i := o; i < e; i++ {
			node.env = node.env.Union(entries[i].env)
		}
		t.nodes = append(t.nodes, node)
	}
	levelStart, levelCount := 0, len(t.nodes)
	for levelCount > 1 {
		next := len(t.nodes)
		for o := 0; o < levelCount; o += segTreeFan {
			e := o + segTreeFan
			if e > levelCount {
				e = levelCount
			}
			node := segNode{first: int32(levelStart + o), count: int32(e - o), env: EmptyEnvelope()}
			for c := o; c < e; c++ {
				node.env = node.env.Union(t.nodes[levelStart+c].env)
			}
			t.nodes = append(t.nodes, node)
		}
		levelStart, levelCount = next, len(t.nodes)-next
	}
	t.nodes = capped(t.nodes)
	t.root = int32(levelStart)
	t.slack = t.nodes[t.root].env.Slack()
	return t
}

// pointCandidates returns the indices of entries whose buffered envelope
// contains p — exactly the edges for which OnSegment or a point-split env
// test can succeed. The list lives in sc and is valid until sc's next
// candidate query.
func (t *segTree) pointCandidates(p Point, sc *Scratch) []int32 {
	dst := sc.cands[:0]
	if t.root < 0 {
		return dst
	}
	stack := append(sc.stack[:0], t.root)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[ni]
		if !n.env.Buffer(Eps).ContainsPoint(p) {
			continue
		}
		if n.leaf {
			for i := n.first; i < n.first+n.count; i++ {
				if t.entries[i].env.Buffer(Eps).ContainsPoint(p) {
					dst = append(dst, i)
				}
			}
		} else {
			for c := n.first; c < n.first+n.count; c++ {
				stack = append(stack, c)
			}
		}
	}
	sc.cands, sc.stack = dst, stack
	return dst
}

// envCandidates returns the indices of entries whose envelope intersects
// q (q is expected pre-buffered by the caller, matching the NodeSoups
// prefilter). The list lives in sc, as pointCandidates' does.
func (t *segTree) envCandidates(q Envelope, sc *Scratch) []int32 {
	dst := sc.cands[:0]
	if t.root < 0 {
		return dst
	}
	stack := append(sc.stack[:0], t.root)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[ni]
		if !q.Intersects(n.env) {
			continue
		}
		if n.leaf {
			for i := n.first; i < n.first+n.count; i++ {
				if q.Intersects(t.entries[i].env) {
					dst = append(dst, i)
				}
			}
		} else {
			for c := n.first; c < n.first+n.count; c++ {
				stack = append(stack, c)
			}
		}
	}
	sc.cands, sc.stack = dst, stack
	return dst
}

// rayFlags casts the +X ray from p and XORs the crossing parity of each
// edge into its slot's parity bit. Nodes are pruned purely on the exact Y
// comparisons of the half-open crossing rule — an edge crosses only when
// exactly one endpoint is strictly above the ray, which requires
// env.MinY <= p.Y < env.MaxY-ish bounds — so no arithmetic is performed
// that the unprepared LocateInRing loop would not perform, and the
// surviving edges evaluate the identical xAt expression.
func (t *segTree) rayFlags(p Point, flags []uint8, sc *Scratch) {
	if t.root < 0 {
		return
	}
	stack := append(sc.stack[:0], t.root)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[ni]
		// (a.Y > p.Y) != (b.Y > p.Y) needs one endpoint above and one at
		// or below the ray: impossible when the whole node is at/below
		// (MaxY <= p.Y) or strictly above (MinY > p.Y).
		if n.env.MaxY <= p.Y || n.env.MinY > p.Y {
			continue
		}
		if n.leaf {
			for i := n.first; i < n.first+n.count; i++ {
				e := &t.entries[i]
				a, b := e.seg.A, e.seg.B
				if (a.Y > p.Y) != (b.Y > p.Y) {
					xAt := a.X + (p.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
					if xAt > p.X {
						flags[e.slot] ^= prepParityBit
					}
				}
			}
		} else {
			for c := n.first; c < n.first+n.count; c++ {
				stack = append(stack, c)
			}
		}
	}
	sc.stack = stack
}

// segPairWithin is the dual-tree search of WithinDistance: whether some
// segment pair of the two subtrees measures at most t with
// DistanceToSegment. Degenerate edges (soup < 0) are not soup segments
// and are skipped, as the brute-force scan never sees them.
//
// A node or entry pair is pruned when its envelopes, each grown by its
// tree's slack (see Envelope.Slack), lie farther apart than t. Every
// segment pair below it then measures above t, so the answer is the
// brute-force scan's in any visiting order.
func segPairWithin(ta, tb *segTree, ia, ib int32, t float64) bool {
	na, nb := &ta.nodes[ia], &tb.nodes[ib]
	if !na.env.Buffer(ta.slack).WithinDistance(nb.env.Buffer(tb.slack), t) {
		return false
	}
	switch {
	case na.leaf && nb.leaf:
		for i := na.first; i < na.first+na.count; i++ {
			ea := &ta.entries[i]
			if ea.soup < 0 {
				continue
			}
			envA := ea.env.Buffer(ta.slack)
			for j := nb.first; j < nb.first+nb.count; j++ {
				eb := &tb.entries[j]
				if eb.soup < 0 || !envA.WithinDistance(eb.env.Buffer(tb.slack), t) {
					continue
				}
				if ea.seg.DistanceToSegment(eb.seg) <= t {
					return true
				}
			}
		}
	case na.leaf:
		for c := nb.first; c < nb.first+nb.count; c++ {
			if segPairWithin(ta, tb, ia, c, t) {
				return true
			}
		}
	case nb.leaf:
		for c := na.first; c < na.first+na.count; c++ {
			if segPairWithin(ta, tb, c, ib, t) {
				return true
			}
		}
	default:
		// Split the node with the larger envelope: tighter child bounds
		// prune earlier.
		if na.env.Perimeter() >= nb.env.Perimeter() {
			for c := na.first; c < na.first+na.count; c++ {
				if segPairWithin(ta, tb, c, ib, t) {
					return true
				}
			}
		} else {
			for c := nb.first; c < nb.first+nb.count; c++ {
				if segPairWithin(ta, tb, ia, c, t) {
					return true
				}
			}
		}
	}
	return false
}

// sortInt32s is an insertion sort for the small candidate lists of the
// noding join (keeps the hot path allocation-free).
func sortInt32s(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
