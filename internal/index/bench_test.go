package index

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func benchQueries() []geom.Envelope {
	return []geom.Envelope{
		{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20},
		{MinX: 50, MinY: 50, MaxX: 52, MaxY: 52},
		{MinX: 0, MinY: 0, MaxX: 5, MaxY: 100},
	}
}

func benchIndexes(n int) map[string]SpatialIndex {
	items := makeItems(n, 100, 42)
	return map[string]SpatialIndex{
		"rtree":  NewRTreeBulk(items),
		"linear": NewLinear(items),
	}
}

func BenchmarkSearch(b *testing.B) {
	for name, idx := range benchIndexes(10000) {
		b.Run(name, func(b *testing.B) {
			queries := benchQueries()
			var buf []int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					buf = idx.Search(q, buf[:0])
				}
			}
		})
	}
}

func BenchmarkSearchDistance(b *testing.B) {
	for name, idx := range benchIndexes(10000) {
		b.Run(name, func(b *testing.B) {
			q := geom.Envelope{MinX: 50, MinY: 50, MaxX: 51, MaxY: 51}
			var buf []int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = idx.SearchDistance(q, 10, buf[:0])
			}
		})
	}
}

func BenchmarkBuild(b *testing.B) {
	items := makeItems(10000, 100, 42)
	for i := 0; i < b.N; i++ {
		NewRTreeBulk(items)
	}
}

// BenchmarkJoin compares Layer.Join with the per-geometry Within loop
// it replaces, on two layers of 2,300 uniform points in a 60×60 square
// at distance 1 (about two neighbours per point).
func BenchmarkJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	layer := func() (*Layer, []geom.Envelope) {
		envs := make([]geom.Envelope, 2300)
		for i := range envs {
			p := geom.Pt(rng.Float64()*60, rng.Float64()*60)
			envs[i] = geom.NewEnvelope(p, p)
		}
		return NewLayer(len(envs), func(j int) geom.Envelope { return envs[j] }, nil, false), envs
	}
	la, envsA := layer()
	lb, _ := layer()
	b.Run("join", func(b *testing.B) {
		var dst []Pair
		for range b.N {
			dst, _ = la.Join(context.Background(), lb, 1, 1, dst[:0])
		}
	})
	b.Run("within", func(b *testing.B) {
		var buf []int
		for range b.N {
			for _, e := range envsA {
				buf = lb.Within(e, 1, buf)
			}
		}
	})
}
