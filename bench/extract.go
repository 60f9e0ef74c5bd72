package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/qsr"
	"repro/internal/transact"
)

// extractSteps are the filter-and-refine steps of one extraction, timed
// from outside the library.
type extractSteps struct {
	prepare, build, search, relate time.Duration
	candidates                     int64
}

// extractionShares breaks transact.extract_ms down from outside the
// library. For each scene it times one sequential transact.ExtractContext
// and then the same steps called one at a time: geom.Prepare on every
// feature, index.NewRTreeBulk per layer, SearchDistance per reference
// row and layer, and the prepared relates per candidate. A step's share
// of the sequential extraction, times the traced extract_ms, is its
// metric; transact.other_ms is the remainder (predicate strings,
// sorting, attribute items, table assembly). The outside pass must
// examine exactly the candidates the library counted.
func extractionShares(ctx context.Context, v map[string]float64, scenes []*dataset.Dataset, opts transact.Options) error {
	var total, prepare, build, search, relate time.Duration
	for k, d := range scenes {
		octr := obs.New(nil)
		seq := opts
		seq.Parallelism = 1
		start := time.Now()
		if _, err := transact.ExtractContext(obs.WithTrace(ctx, octr), d, seq); err != nil {
			return err
		}
		total += time.Since(start)
		steps := outsideExtract(d, opts)
		if counted := octr.Counter("extract.candidates"); steps.candidates != counted {
			return fmt.Errorf("scene %d: the outside pass examined %d candidates, extract.candidates counted %d", k, steps.candidates, counted)
		}
		prepare += steps.prepare
		build += steps.build
		search += steps.search
		relate += steps.relate
	}
	extract := v["transact.extract_ms"]
	share := func(d time.Duration) float64 { return extract * ratio(d.Seconds(), total.Seconds()) }
	v["geom.prepare_ms"] = share(prepare)
	v["index.build_ms"] = share(build)
	v["index.search_ms"] = share(search)
	v["qsr.relate_ms"] = share(relate)
	v["transact.other_ms"] = share(total - prepare - build - search - relate)
	return nil
}

// outsideExtract repeats the topological + distance filter-and-refine
// work of transact.ExtractContext with prepared geometry and R-trees,
// timing each step. It mirrors the library's candidate search for
// distance predicates without farFrom (a window of CloseMax around the
// reference envelope) and its envelope short-cuts before each relate.
func outsideExtract(d *dataset.Dataset, opts transact.Options) extractSteps {
	var st extractSteps
	start := time.Now()
	prep := make([][]*geom.Prepared, len(d.Relevant))
	for i, layer := range d.Relevant {
		prep[i] = make([]*geom.Prepared, layer.Len())
		for j := range layer.Features {
			prep[i][j] = geom.Prepare(layer.Features[j].Geometry)
		}
	}
	refs := make([]*geom.Prepared, d.Reference.Len())
	for r := range d.Reference.Features {
		refs[r] = geom.Prepare(d.Reference.Features[r].Geometry)
	}
	st.prepare = time.Since(start)

	start = time.Now()
	trees := make([]*index.RTree, len(d.Relevant))
	for i := range d.Relevant {
		items := make([]index.Item, len(prep[i]))
		for j, p := range prep[i] {
			items[j] = index.Item{Env: p.Envelope(), ID: j}
		}
		trees[i] = index.NewRTreeBulk(items)
	}
	st.build = time.Since(start)

	var candidates []int
	for _, ref := range refs {
		env := ref.Envelope()
		envBuf := env.Buffer(geom.Eps)
		for li, tree := range trees {
			t0 := time.Now()
			candidates = tree.SearchDistance(env, opts.Thresholds.CloseMax+geom.Eps, candidates[:0])
			t1 := time.Now()
			st.search += t1.Sub(t0)
			st.candidates += int64(len(candidates))
			for _, ci := range candidates {
				feat := prep[li][ci]
				featEnv := feat.Envelope()
				if opts.Topological && envBuf.Intersects(featEnv) {
					qsr.TopologicalPrepared(ref, feat)
				}
				if opts.Distance && env.Distance(featEnv) <= opts.Thresholds.CloseMax {
					qsr.DistanceRelationPrepared(ref, feat, opts.Thresholds)
				}
			}
			st.relate += time.Since(t1)
		}
	}
	return st
}
