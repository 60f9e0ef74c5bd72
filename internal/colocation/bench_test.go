package colocation_test

import (
	"testing"

	"repro/internal/colocation"
	"repro/internal/datagen"
)

// BenchmarkMine times Mine on pools GOMAXPROCS wide (set by -cpu), at
// Distance 1 and MinPI 0.2 on two planted scenes: the cli-colocate
// scene (six types, 2,300 points, fifteen type pairs) and a two-type
// scene of 4,600 points, whose neighbour search is one type pair.
func BenchmarkMine(b *testing.B) {
	scenes := []struct {
		name string
		cfg  datagen.ColocationSceneConfig
	}{
		{"six-types", cliColocateScene(2007)},
		{"two-types", datagen.ColocationSceneConfig{
			Seed: 2007, Types: []string{"atm", "busStop"}, Extent: 60,
			Clusters: 300, ClusterSpread: 0.5, Noise: 2000,
		}},
	}
	for _, sc := range scenes {
		ds, err := datagen.GenerateColocationScene(sc.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := colocation.Mine(ds, colocation.Config{Distance: 1, MinPI: 0.2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
