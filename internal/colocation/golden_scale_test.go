package colocation_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/colocation"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// TestColocationGoldenAtScale pins co-location at the benchmark's scale:
// the full-size planted scene of the cli-colocate workload at seeds 2007
// and 3, and the 20×20 DefaultScene of serve-mix's first client at the
// same two seeds (DefaultScene seeds 32113 and 49), each read back from
// its JSON as the benchmark reads it. At Distance 1 and MinPI 0.2, at
// GOMAXPROCS 1 and 4, the digest of the prevalent patterns and the
// filter, refine and instance counts must not move. The values were
// recorded before the neighbour search moved onto index.Layer.
func TestColocationGoldenAtScale(t *testing.T) {
	type golden struct {
		digest                             string
		candidatePairs, refinedPairs, inst int64
	}
	want := map[string]golden{
		"cli-colocate/seed=2007": {"81f68a082cdfbaa557cc016f4e40a058e7e08692f13b960f14ef9737ca4b5c90", 2325, 2325, 2300},
		"cli-colocate/seed=3":    {"41240dec005ad925fde12cf66d1a7e29ddfea5a3f24936af0a564a4aa53807b8", 2295, 2295, 2300},
		"serve-mix/seed=32113":   {"bb99888a8d9e5e1beea4b67a14f0ced10c87d57cd0639b31eb205b290cf02894", 3883, 3883, 2080},
		"serve-mix/seed=49":      {"80c24ddfbed0e5d3cbafaf273330646939a918bf721d51d2d8c2addc4b8f5ffe", 3860, 3860, 2109},
	}
	type input struct {
		name string
		d    *dataset.Dataset
	}
	roundTrip := func(d *dataset.Dataset, err error) *dataset.Dataset {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if d, err = dataset.ReadJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return d
	}
	var inputs []input
	for _, seed := range []int64{2007, 3} {
		inputs = append(inputs, input{fmt.Sprintf("cli-colocate/seed=%d", seed), roundTrip(datagen.GenerateColocationScene(cliColocateScene(seed)))})
	}
	for _, seed := range []int64{32113, 49} {
		inputs = append(inputs, input{fmt.Sprintf("serve-mix/seed=%d", seed), roundTrip(datagen.GenerateScene(datagen.DefaultScene(20, 20, seed)))})
	}
	for _, in := range inputs {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", in.name, par), func(t *testing.T) {
				res := mustMineAt(t, par, in.d, colocation.Config{Distance: 1, MinPI: 0.2})
				prevalent, err := json.Marshal(res.Prevalent)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(prevalent)
				got := golden{hex.EncodeToString(sum[:]), res.CandidatePairs, res.RefinedPairs, int64(res.Instances)}
				if w := want[in.name]; got != w {
					t.Errorf("co-location moved:\n got %+v\nwant %+v", got, w)
				}
			})
		}
	}
}

// cliColocateScene is the full-size planted scene of the cli-colocate
// benchmark workload: six point types, four planted sets of two or
// three types, 2,300 points.
func cliColocateScene(seed int64) datagen.ColocationSceneConfig {
	return datagen.ColocationSceneConfig{
		Seed:          seed,
		Types:         []string{"atm", "busStop", "cafe", "kiosk", "pharmacy", "school"},
		Extent:        60,
		Clusters:      200,
		ClusterSpread: 0.5,
		Planted: [][]string{
			{"atm", "busStop"}, {"busStop", "cafe", "kiosk"},
			{"pharmacy", "school"}, {"cafe", "kiosk", "pharmacy"},
		},
		Noise: 300,
	}
}
