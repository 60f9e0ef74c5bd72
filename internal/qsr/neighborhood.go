package qsr

// Conceptual neighborhood of RCC8 (Randell, Cui & Cohn): two relations
// are neighbors when one can transform continuously into the other
// without passing through a third relation — e.g. two disconnected
// regions moving towards each other become externally connected before
// they can partially overlap. Neighborhood structure powers qualitative
// simulation and coarse plausibility checks on observation sequences
// (a tracked region cannot jump from DC to NTPP between two frames).
//
// We implement the standard diagram for the combined move/deform
// transition semantics:
//
//	DC — EC — PO — TPP  — NTPP
//	            \  |  \
//	             \ EQ   (TPP—EQ, TPPi—EQ)
//	              \|  /
//	               TPPi — NTPPi
var rcc8Neighbors = map[RCC8]RCC8Set{
	DC:    NewRCC8Set(EC),
	EC:    NewRCC8Set(DC, PO),
	PO:    NewRCC8Set(EC, TPP, TPPi),
	TPP:   NewRCC8Set(PO, NTPP, EQ),
	NTPP:  NewRCC8Set(TPP),
	TPPi:  NewRCC8Set(PO, NTPPi, EQ),
	NTPPi: NewRCC8Set(TPPi),
	EQ:    NewRCC8Set(TPP, TPPi),
}

// IsNeighborhoodMove reports whether a transition from r to s is
// continuously possible in one step (staying put counts).
func IsNeighborhoodMove(r, s RCC8) bool {
	return r == s || rcc8Neighbors[r].Has(s)
}

// NeighborhoodDistance returns the minimal number of neighborhood steps
// from r to s — a qualitative "how different are these configurations"
// metric (0 for identical, 1 for neighbors, up to 4 across the diagram).
func NeighborhoodDistance(r, s RCC8) int {
	if r == s {
		return 0
	}
	// Breadth-first search over the 8-node graph.
	visited := NewRCC8Set(r)
	frontier := NewRCC8Set(r)
	for depth := 1; ; depth++ {
		var next RCC8Set
		for _, cur := range frontier.Relations() {
			next = next.Union(rcc8Neighbors[cur])
		}
		next = next.Intersect(^visited & Universal)
		if next.IsEmpty() {
			return -1 // unreachable; cannot happen on the connected graph
		}
		if next.Has(s) {
			return depth
		}
		visited = visited.Union(next)
		frontier = next
	}
}

// PlausibleSequence reports whether a sequence of observed RCC8 relations
// (e.g. per-frame relations of a moving region against a fixed one) is
// continuity-plausible: every consecutive pair must be a neighborhood
// move. Empty and single-element sequences are trivially plausible.
func PlausibleSequence(seq []RCC8) bool {
	for i := 1; i < len(seq); i++ {
		if !IsNeighborhoodMove(seq[i-1], seq[i]) {
			return false
		}
	}
	return true
}
