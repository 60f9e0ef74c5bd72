package qsrmine_test

import (
	"strings"
	"testing"

	qsrmine "repro"
	"repro/internal/datagen"
	"repro/internal/qsr"
	"repro/internal/transact"
)

// TestCityScaleIntegration drives the full production path on a
// city-sized synthetic scene: 400 districts, five feature layers,
// parallel R-tree-accelerated extraction, KC+ mining, and rule
// generation. It asserts the semantic guarantees end to end.
func TestCityScaleIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale integration skipped in -short mode")
	}
	cfg := datagen.DefaultScene(20, 20, 2026)
	cfg.IrregularPolygons = true
	scene, err := datagen.GenerateScene(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := scene.Validate(); err != nil {
		t.Fatalf("scene invalid: %v", err)
	}

	opts := qsrmine.DefaultExtractOptions()
	opts.Parallelism = 0 // all cores
	out, err := qsrmine.Run(scene, qsrmine.Config{
		Extraction:    opts,
		Algorithm:     qsrmine.AprioriKCPlus,
		MinSupport:    0.05,
		GenerateRules: true,
		MinConfidence: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.Len() != 400 {
		t.Fatalf("transactions = %d, want 400", out.Table.Len())
	}
	if out.Result.NumFrequent(2) == 0 || len(out.Rules) == 0 {
		t.Fatal("no patterns or rules at city scale")
	}

	// Semantic guarantee 1: no same-feature itemset anywhere.
	for _, f := range out.Result.Frequent {
		if f.Items.HasSameFeaturePair(out.DB.Dict) {
			t.Errorf("same-feature itemset leaked: %s", f.Items.Format(out.DB.Dict))
		}
	}
	// Semantic guarantee 2: every emitted item parses back to a known
	// predicate or attribute.
	for _, it := range out.Table.Items() {
		if strings.ContainsRune(it, '=') {
			continue
		}
		if _, err := qsr.ParsePredicate(it); err != nil {
			t.Errorf("unparseable extracted item %q", it)
		}
	}
	// Semantic guarantee 3: the baseline finds strictly more patterns.
	base, err := qsrmine.RunTable(out.Table, qsrmine.Config{
		Algorithm:  qsrmine.Apriori,
		MinSupport: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Result.NumFrequent(2) <= out.Result.NumFrequent(2) {
		t.Errorf("Apriori %d <= KC+ %d patterns", base.Result.NumFrequent(2), out.Result.NumFrequent(2))
	}
	// Cross-check with sequential extraction on a spot sample: the
	// parallel result is authoritative per TestParallelExtraction*, but
	// verify one row here against an independent sequential run.
	seqOpts := transact.DefaultOptions()
	seqOpts.Parallelism = 1
	seq, err := qsrmine.Extract(scene, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(seq.Transactions[123].Items, "|") != strings.Join(out.Table.Transactions[123].Items, "|") {
		t.Error("parallel and sequential extraction disagree")
	}
}
