package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/transact"
)

// TestRunDefaultsOnlyZeroExtraction is the regression test for the
// defaulting bug: a deliberately non-zero Extraction with all relation
// families off must NOT be replaced with DefaultOptions — it performs
// attributes-only extraction.
func TestRunDefaultsOnlyZeroExtraction(t *testing.T) {
	scene := dataset.PortoAlegreScene()

	// Zero value: still defaulted to topological extraction.
	defaulted, err := Run(scene, Config{Algorithm: AlgApriori, MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	spatial := 0
	for _, tx := range defaulted.Table.Transactions {
		for _, it := range tx.Items {
			if strings.Contains(it, "_") && !strings.Contains(it, "=") {
				spatial++
			}
		}
	}
	if spatial == 0 {
		t.Fatal("zero Extraction must still default to topological predicates")
	}

	// Non-zero, all families off: attributes-only extraction.
	out, err := Run(scene, Config{
		Extraction: transact.Options{IncludeIsA: true},
		Algorithm:  AlgApriori,
		MinSupport: 0.5,
	})
	if err != nil {
		t.Fatalf("attributes-only extraction must be reachable: %v", err)
	}
	for _, tx := range out.Table.Transactions {
		hasIsA := false
		for _, it := range tx.Items {
			if it == "is_a_district" {
				hasIsA = true
			}
			if strings.HasPrefix(it, "contains_") || strings.HasPrefix(it, "touches_") ||
				strings.HasPrefix(it, "crosses_") || strings.HasPrefix(it, "within_") {
				t.Fatalf("spatial predicate %q leaked into attributes-only extraction", it)
			}
		}
		if !hasIsA {
			t.Errorf("transaction %s missing is_a item: %v", tx.RefID, tx.Items)
		}
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, dataset.PortoAlegreScene(), Config{
		Algorithm: AlgApriori, MinSupport: 0.5,
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled RunContext err = %v, want context.Canceled", err)
	}
	if _, err := RunTableContext(ctx, dataset.Table2Reconstruction(), Config{
		Algorithm: AlgApriori, MinSupport: 0.5,
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled RunTableContext err = %v, want context.Canceled", err)
	}
}

// cancelOnPass is a Sink cancelling a context at the first mining pass —
// it drives the deterministic "cancel between passes" test.
type cancelOnPass struct {
	cancel context.CancelFunc
}

func (s *cancelOnPass) Emit(e obs.Event) {
	if e.Kind == obs.KindPass {
		s.cancel()
	}
}

func TestRunTableContextCancelBetweenPasses(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := obs.New(&cancelOnPass{cancel: cancel})
	out, err := RunTableContext(obs.WithTrace(ctx, tr), dataset.Table2Reconstruction(), Config{
		Algorithm: AlgAprioriKCPlus, MinSupport: 0.5,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Error("cancelled run must not return a partial outcome")
	}
}

func TestRunTableContextEmitsStages(t *testing.T) {
	c := obs.NewCollector()
	ctx := obs.WithTrace(context.Background(), obs.New(c))
	if _, err := RunTableContext(ctx, dataset.Table2Reconstruction(), Config{
		Algorithm: AlgAprioriKCPlus, MinSupport: 0.5, GenerateRules: true, MinConfidence: 0.7,
	}); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range c.Stages() {
		names = append(names, s.Name)
	}
	want := []string{"intern", "mine", "postfilter", "rules"}
	if len(names) != len(want) {
		t.Fatalf("stages = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stages = %v, want %v", names, want)
		}
	}
	passes := c.Passes()
	if len(passes) == 0 {
		t.Fatal("no pass events emitted")
	}
	if passes[0].K != 1 || passes[0].Frequent == 0 {
		t.Errorf("pass 1 = %+v", passes[0])
	}
	foundPrune := false
	for _, p := range passes {
		if p.K == 2 && p.PrunedSameFeature > 0 {
			foundPrune = true
		}
	}
	if !foundPrune {
		t.Error("KC+ run emitted no same-feature prune counts at k=2")
	}
}

func TestAlgorithmTextRoundTrip(t *testing.T) {
	for _, a := range []Algorithm{AlgApriori, AlgAprioriKC, AlgAprioriKCPlus, AlgEclatKCPlus} {
		text, err := a.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Algorithm
		if err := back.UnmarshalText(text); err != nil || back != a {
			t.Errorf("round trip %v: %v, %v", a, back, err)
		}
	}
	if _, err := Algorithm(99).MarshalText(); err == nil {
		t.Error("unknown algorithm must not marshal")
	}
	var a Algorithm
	if err := a.UnmarshalText([]byte("nope")); err == nil {
		t.Error("unknown algorithm must not unmarshal")
	}
	if err := a.UnmarshalText([]byte("kc+")); err != nil || a != AlgAprioriKCPlus {
		t.Error("alias must unmarshal")
	}
}

func TestPostFilterTextRoundTrip(t *testing.T) {
	for _, p := range []PostFilter{NoPostFilter, ClosedFilter, MaximalFilter} {
		text, err := p.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back PostFilter
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Errorf("round trip %v: %v, %v", p, back, err)
		}
		if parsed, err := ParsePostFilter(p.String()); err != nil || parsed != p {
			t.Errorf("parse %v: %v, %v", p, parsed, err)
		}
	}
	if _, err := PostFilter(9).MarshalText(); err == nil {
		t.Error("unknown post filter must not marshal")
	}
	if PostFilter(9).String() != "core.PostFilter(9)" {
		t.Error("unknown post filter string")
	}
	if _, err := ParsePostFilter("bogus"); err == nil {
		t.Error("unknown post filter must not parse")
	}
	if p, err := ParsePostFilter(""); err != nil || p != NoPostFilter {
		t.Error("empty post filter must parse as none")
	}
}
