package colocation

import (
	"errors"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// MineBruteForce is the oracle the engine is cross-checked against: it
// enumerates every feature-type set of size >= 2 and every instance
// combination, testing each pair with a raw geom.Distance call — no
// R-tree filter, no prepared geometries, no participation-index
// pruning. Partial combinations that already violate the distance are
// abandoned (exact, since a row instance needs every pair within
// Distance), which keeps the oracle usable on test-sized scenes without
// changing what it finds. Output ordering and participation-index
// arithmetic match the engine exactly, so results are comparable with
// reflect.DeepEqual on Prevalent.
func MineBruteForce(ds *dataset.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ds == nil {
		return nil, errors.New("colocation: nil dataset")
	}
	start := time.Now()
	types := gatherTypes(ds)
	res := &Result{
		Distance: cfg.Distance,
		MinPI:    cfg.MinPI,
		Types:    typeNames(types),
	}
	for _, t := range types {
		res.Instances += len(t.geoms)
	}
	// The neighbor test the whole oracle reduces to: one raw distance.
	near := func(ti, a, tj, b int) bool {
		return geom.Distance(types[ti].geoms[a], types[tj].geoms[b]) <= cfg.Distance
	}

	// Enumerate type subsets in (size, lex) order to match the engine's
	// level-by-level output.
	maxSize := len(types)
	if cfg.MaxSize > 0 && cfg.MaxSize < maxSize {
		maxSize = cfg.MaxSize
	}
	for size := 2; size <= maxSize; size++ {
		subset := make([]int, size)
		var rec func(pos, from int)
		rec = func(pos, from int) {
			if pos == size {
				if p, ok := bruteForcePattern(types, subset, cfg, near); ok {
					res.Prevalent = append(res.Prevalent, p)
				}
				return
			}
			for t := from; t < len(types); t++ {
				subset[pos] = t
				rec(pos+1, t+1)
			}
		}
		rec(0, 0)
	}
	if cfg.TopK > 0 {
		res.Prevalent = selectTopK(res.Prevalent, cfg.TopK)
	}
	res.Duration = time.Since(start)
	return res, nil
}

// bruteForcePattern enumerates every row instance of one candidate set
// directly and reports the pattern when its participation index clears
// MinPI.
func bruteForcePattern(types []typeSet, subset []int, cfg Config, near func(ti, a, tj, b int) bool) (Pattern, bool) {
	k := len(subset)
	part := make([][]bool, k)
	for i, t := range subset {
		part[i] = make([]bool, len(types[t].geoms))
	}
	rows := 0
	row := make([]int, k)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == k {
			rows++
			for i, a := range row {
				part[i][a] = true
			}
			return
		}
		t := subset[pos]
	next:
		for a := range types[t].geoms {
			for prev := 0; prev < pos; prev++ {
				if !near(subset[prev], row[prev], t, a) {
					continue next
				}
			}
			row[pos] = a
			rec(pos + 1)
		}
	}
	rec(0)
	if rows == 0 {
		return Pattern{}, false
	}
	pi := 1.0
	for i, t := range subset {
		cnt := 0
		for _, p := range part[i] {
			if p {
				cnt++
			}
		}
		r := float64(cnt) / float64(len(types[t].geoms))
		if r < pi {
			pi = r
		}
	}
	if pi < cfg.MinPI {
		return Pattern{}, false
	}
	return Pattern{Types: namesOf(types, subset), PI: pi, Rows: rows}, true
}
