package core

import (
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/transact"
)

func TestRunEndToEnd(t *testing.T) {
	// Geometric scene -> Table 1 -> 47 frequent sets (printed Table 1
	// numbers; see dataset.Table2Reconstruction for the erratum).
	out, err := Run(dataset.PortoAlegreScene(), Config{
		Algorithm:  AlgApriori,
		MinSupport: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.Len() != 6 {
		t.Fatalf("transactions = %d", out.Table.Len())
	}
	if got := out.Result.NumFrequent(2); got != 47 {
		t.Errorf("frequent sets = %d, want 47", got)
	}
	if out.Rules != nil {
		t.Error("rules generated without being requested")
	}
}

func TestRunKCPlusEndToEnd(t *testing.T) {
	out, err := Run(dataset.PortoAlegreScene(), Config{
		Algorithm:     AlgAprioriKCPlus,
		MinSupport:    0.5,
		GenerateRules: true,
		MinConfidence: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range out.Result.Frequent {
		if f.Items.HasSameFeaturePair(out.DB.Dict) {
			t.Errorf("same-feature itemset leaked: %s", f.Items.Format(out.DB.Dict))
		}
	}
	if len(out.Rules) == 0 {
		t.Error("no rules generated")
	}
	for _, r := range out.Rules {
		if r.Confidence < 0.7 {
			t.Errorf("rule below min confidence: %v", r.Confidence)
		}
	}
}

func TestRunTableWithDependencies(t *testing.T) {
	out, err := RunTable(dataset.Table2Reconstruction(), Config{
		Algorithm:    AlgAprioriKC,
		MinSupport:   0.5,
		Dependencies: []mining.Pair{{A: "contains_slum", B: "contains_school"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.PrunedDeps != 1 {
		t.Errorf("pruned deps = %d, want 1", out.Result.PrunedDeps)
	}
	if out.Result.PrunedSameFeature != 0 {
		t.Error("KC must not prune same-feature pairs")
	}
}

func TestRunPostFilters(t *testing.T) {
	table := dataset.Table2Reconstruction()
	all, err := RunTable(table, Config{Algorithm: AlgApriori, MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	closed, err := RunTable(table, Config{Algorithm: AlgApriori, MinSupport: 0.5, PostFilter: ClosedFilter})
	if err != nil {
		t.Fatal(err)
	}
	maximal, err := RunTable(table, Config{Algorithm: AlgApriori, MinSupport: 0.5, PostFilter: MaximalFilter})
	if err != nil {
		t.Fatal(err)
	}
	if !(len(maximal.Result.Frequent) <= len(closed.Result.Frequent) &&
		len(closed.Result.Frequent) <= len(all.Result.Frequent)) {
		t.Errorf("filter sizes: maximal %d, closed %d, all %d",
			len(maximal.Result.Frequent), len(closed.Result.Frequent), len(all.Result.Frequent))
	}
	// The reconstruction has exactly 2 maximal itemsets.
	if len(maximal.Result.Frequent) != 2 {
		t.Errorf("maximal = %d, want 2", len(maximal.Result.Frequent))
	}
}

func TestRunErrors(t *testing.T) {
	table := dataset.Table2Reconstruction()
	if _, err := RunTable(table, Config{Algorithm: Algorithm(9), MinSupport: 0.5}); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if _, err := RunTable(table, Config{Algorithm: AlgApriori}); err == nil {
		t.Error("zero minsup should fail")
	}
	if _, err := RunTable(table, Config{Algorithm: AlgApriori, MinSupport: 0.5, PostFilter: PostFilter(9)}); err == nil {
		t.Error("unknown post filter should fail")
	}
	if _, err := Run(&dataset.Dataset{}, Config{Algorithm: AlgApriori, MinSupport: 0.5}); err == nil ||
		!strings.Contains(err.Error(), "extraction") {
		t.Error("extraction failure should be wrapped")
	}
}

func TestRunCustomExtraction(t *testing.T) {
	opts := transact.DefaultOptions()
	opts.Granularity = transact.InstanceLevel
	out, err := Run(dataset.PortoAlegreScene(), Config{
		Extraction: opts,
		Algorithm:  AlgAprioriKCPlus,
		MinSupport: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// At instance granularity every spatial predicate names an instance,
	// so the closing remark of the paper applies: instance-level items
	// are never same-feature filtered.
	if out.Result.PrunedSameFeature != 0 {
		t.Errorf("instance granularity pruned %d pairs, want 0", out.Result.PrunedSameFeature)
	}
}

func TestAlgorithmStringParse(t *testing.T) {
	for _, a := range []Algorithm{AlgApriori, AlgAprioriKC, AlgAprioriKCPlus} {
		parsed, err := ParseAlgorithm(a.String())
		if err != nil || parsed != a {
			t.Errorf("round trip %v: %v, %v", a, parsed, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("unknown algorithm must not parse")
	}
	for _, alias := range []string{"kc", "kc+", "kcplus"} {
		if _, err := ParseAlgorithm(alias); err != nil {
			t.Errorf("alias %q should parse", alias)
		}
	}
	if Algorithm(9).String() != "core.Algorithm(9)" {
		t.Error("unknown algorithm string")
	}
}

func TestEclatAlgorithmMatchesKCPlus(t *testing.T) {
	table := dataset.Table2Reconstruction()
	ap, err := RunTable(table, Config{Algorithm: AlgAprioriKCPlus, MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ec, err := RunTable(table, Config{Algorithm: AlgEclatKCPlus, MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ap.Result.Frequent) != len(ec.Result.Frequent) {
		t.Fatalf("apriori-kc+ %d vs eclat-kc+ %d itemsets",
			len(ap.Result.Frequent), len(ec.Result.Frequent))
	}
	for i := range ap.Result.Frequent {
		a, e := ap.Result.Frequent[i], ec.Result.Frequent[i]
		if !a.Items.Equal(e.Items) || a.Support != e.Support {
			t.Fatalf("result %d differs: %v/%d vs %v/%d", i, a.Items, a.Support, e.Items, e.Support)
		}
	}
}

// TestRemovedAlgorithmNamesRejected pins that the spellings of the
// removed FP-growth engine (listed in testdata) no longer parse, and
// that the error lists every valid name.
func TestRemovedAlgorithmNamesRejected(t *testing.T) {
	raw, err := os.ReadFile("testdata/retired_algorithms.txt")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			names = append(names, line)
		}
	}
	if len(names) == 0 {
		t.Fatal("no retired names in testdata")
	}
	for _, name := range names {
		_, err := ParseAlgorithm(name)
		if err == nil {
			t.Fatalf("ParseAlgorithm(%q) succeeded", name)
		}
		for _, valid := range []string{"apriori", "apriori-kc", "apriori-kc+", "eclat-kc+"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("error %q does not list %q", err, valid)
			}
		}
	}
}
