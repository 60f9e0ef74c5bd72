package colocation_test

import (
	"reflect"
	"testing"

	"repro/internal/colocation"
	"repro/internal/datagen"
)

// TestJoinlessStarPrunesOnDenseScene pins that the star upper bound
// actually fires somewhere: on a cluttered scene with a high MinPI there
// are candidates whose star bound rules them out, and the prune must not
// change the mined patterns — they still equal the brute-force oracle's.
func TestJoinlessStarPrunesOnDenseScene(t *testing.T) {
	ds, err := datagen.GenerateColocationScene(datagen.ColocationSceneConfig{
		Seed: 37, Types: []string{"a", "b", "c", "d", "e"}, Extent: 14,
		Clusters: 6, ClusterSpread: 0.7, Noise: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := colocation.Config{Distance: 1, MinPI: 0.55}
	got, err := colocation.Mine(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.StarPruned == 0 {
		t.Fatalf("expected the star upper bound to prune at least one candidate (candidates=%d)", got.Candidates)
	}
	want, err := colocation.MineBruteForce(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Prevalent, want.Prevalent) {
		t.Fatalf("pruning changed output:\n got %+v\nwant %+v", got.Prevalent, want.Prevalent)
	}
}

// TestTopKTruncation pins the top-k contract: the k highest-PI
// patterns survive, ties break by smaller size then name order, the
// kept patterns stay in the walk's canonical size-then-name order, and
// the oracle truncates identically.
func TestTopKTruncation(t *testing.T) {
	ds, err := datagen.GenerateColocationScene(datagen.ColocationSceneConfig{
		Seed: 41, Types: []string{"a", "b", "c", "d"}, Extent: 30,
		Clusters: 10, ClusterSpread: 0.4,
		Planted: [][]string{{"a", "b", "c"}, {"c", "d"}},
		Noise:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := colocation.Mine(ds, colocation.Config{Distance: 1, MinPI: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Prevalent) < 3 {
		t.Fatalf("scene too sparse for a top-k test: %d prevalent", len(full.Prevalent))
	}
	for k := 1; k <= len(full.Prevalent)+1; k++ {
		cfg := colocation.Config{Distance: 1, MinPI: 0.2, TopK: k}
		got, err := colocation.Mine(ds, cfg)
		if err != nil {
			t.Fatalf("topK=%d: %v", k, err)
		}
		want := topKReference(full.Prevalent, k)
		if !reflect.DeepEqual(got.Prevalent, want) {
			t.Fatalf("topK=%d:\n got %+v\nwant %+v", k, got.Prevalent, want)
		}
		oracle, err := colocation.MineBruteForce(ds, cfg)
		if err != nil {
			t.Fatalf("topK=%d oracle: %v", k, err)
		}
		if !reflect.DeepEqual(oracle.Prevalent, want) {
			t.Fatalf("topK=%d oracle diverged:\n got %+v\nwant %+v", k, oracle.Prevalent, want)
		}
	}
}

// topKReference is an independent O(n²) selection of the k best
// patterns — by (higher PI, smaller size, lex-smaller names) — kept in
// their original order, against which the engine's bounded heap is
// checked.
func topKReference(prevalent []colocation.Pattern, k int) []colocation.Pattern {
	if k >= len(prevalent) {
		return prevalent
	}
	rank := func(i int) int {
		r := 0
		for j := range prevalent {
			if j == i {
				continue
			}
			a, b := &prevalent[j], &prevalent[i]
			switch {
			case a.PI != b.PI:
				if a.PI > b.PI {
					r++
				}
			case len(a.Types) != len(b.Types):
				if len(a.Types) < len(b.Types) {
					r++
				}
			default:
				for x := range a.Types {
					if a.Types[x] != b.Types[x] {
						if a.Types[x] < b.Types[x] {
							r++
						}
						break
					}
				}
			}
		}
		return r
	}
	out := make([]colocation.Pattern, 0, k)
	for i := range prevalent {
		if rank(i) < k {
			out = append(out, prevalent[i])
		}
	}
	return out
}
