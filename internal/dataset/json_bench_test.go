package dataset_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// benchScenes are the default generated scenes of the end-to-end
// benchmark: 20×20 districts as served by serve-mix, 28×28 as parsed by
// cli-scene.
func benchScenes(b *testing.B) map[string]*dataset.Dataset {
	b.Helper()
	scenes := map[string]*dataset.Dataset{}
	for _, grid := range []int{20, 28} {
		d, err := datagen.GenerateScene(datagen.DefaultScene(grid, grid, 1))
		if err != nil {
			b.Fatal(err)
		}
		scenes[fmt.Sprintf("scene=%dx%d", grid, grid)] = d
	}
	return scenes
}

func BenchmarkWriteJSON(b *testing.B) {
	for name, d := range benchScenes(b) {
		b.Run(name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := d.WriteJSON(&buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := d.WriteJSON(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cliColocateScene is the body the cli-colocate benchmark workload
// decodes: the planted scene of seed 2007, six point types, 2,300
// points.
func cliColocateScene(b *testing.B) *dataset.Dataset {
	b.Helper()
	d, err := datagen.GenerateColocationScene(datagen.ColocationSceneConfig{
		Seed:          2007,
		Types:         []string{"atm", "busStop", "cafe", "kiosk", "pharmacy", "school"},
		Extent:        60,
		Clusters:      200,
		ClusterSpread: 0.5,
		Planted: [][]string{
			{"atm", "busStop"}, {"busStop", "cafe", "kiosk"},
			{"pharmacy", "school"}, {"cafe", "kiosk", "pharmacy"},
		},
		Noise: 300,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkReadJSON decodes the district scenes of benchScenes and the
// point scene of cli-colocate.
func BenchmarkReadJSON(b *testing.B) {
	scenes := benchScenes(b)
	scenes["colocate"] = cliColocateScene(b)
	for name, d := range scenes {
		b.Run(name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := d.WriteJSON(&buf); err != nil {
				b.Fatal(err)
			}
			body := buf.Bytes()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dataset.ReadJSON(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
