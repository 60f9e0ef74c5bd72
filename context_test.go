// Cancellation and observability tests over the public API: a cancelled
// context stops extraction and in-flight mining promptly, and a traced
// run reports every stage.
package qsrmine_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	qsrmine "repro"
	"repro/internal/datagen"
	"repro/internal/obs"
)

func TestPublicRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := qsrmine.Config{Algorithm: qsrmine.AprioriKCPlus, MinSupport: 0.5}
	if _, err := qsrmine.RunContext(ctx, qsrmine.PortoAlegreScene(), cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext err = %v, want context.Canceled", err)
	}
	if _, err := qsrmine.RunTableContext(ctx, qsrmine.PortoAlegreTable(), cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTableContext err = %v, want context.Canceled", err)
	}
	if _, err := qsrmine.ExtractContext(ctx, qsrmine.PortoAlegreScene(), qsrmine.DefaultExtractOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("ExtractContext err = %v, want context.Canceled", err)
	}
}

func TestPublicRunContextMatchesRun(t *testing.T) {
	cfg := qsrmine.Config{Algorithm: qsrmine.AprioriKCPlus, MinSupport: 0.5}
	plain, err := qsrmine.Run(qsrmine.PortoAlegreScene(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := qsrmine.RunContext(context.Background(), qsrmine.PortoAlegreScene(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Result.Frequent) != len(traced.Result.Frequent) {
		t.Fatalf("Run %d vs RunContext %d frequent itemsets",
			len(plain.Result.Frequent), len(traced.Result.Frequent))
	}
}

func TestPublicTraceEndToEnd(t *testing.T) {
	var text strings.Builder
	collector := qsrmine.NewTraceCollector()
	tr := qsrmine.NewTrace(qsrmine.MultiTraceSink(qsrmine.NewTextTraceSink(&text), collector))
	ctx := qsrmine.WithTrace(context.Background(), tr)
	if obs.FromContext(ctx) != tr {
		t.Fatal("trace did not round-trip through the public context helpers")
	}
	_, err := qsrmine.RunContext(ctx, qsrmine.PortoAlegreScene(), qsrmine.Config{
		Algorithm: qsrmine.AprioriKCPlus, MinSupport: 0.5, GenerateRules: true, MinConfidence: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	stages := make(map[string]bool)
	for _, s := range collector.Stages() {
		stages[s.Name] = true
	}
	for _, want := range []string{"extract", "intern", "mine", "postfilter", "rules"} {
		if !stages[want] {
			t.Errorf("stage %q missing from trace (got %v)", want, stages)
		}
	}
	if len(collector.Passes()) == 0 {
		t.Error("no pass events collected")
	}
	if !strings.Contains(text.String(), "stage extract") || !strings.Contains(text.String(), "pass k=2") {
		t.Errorf("text trace incomplete:\n%s", text.String())
	}
	if tr.Counter("extract.rows") != 6 {
		t.Errorf("extract.rows = %d, want 6", tr.Counter("extract.rows"))
	}
}

// TestPublicEclatTraced: the Eclat engine also reports per-size pass
// events (per-pass counts for every algorithm).
func TestPublicEclatTraced(t *testing.T) {
	collector := qsrmine.NewTraceCollector()
	ctx := qsrmine.WithTrace(context.Background(), qsrmine.NewTrace(collector))
	out, err := qsrmine.RunTableContext(ctx, qsrmine.Table2Reconstruction(), qsrmine.Config{
		Algorithm: qsrmine.EclatKCPlus, MinSupport: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	passes := collector.Passes()
	if len(passes) != out.Result.MaxLen() {
		t.Fatalf("pass events = %d, want %d (one per itemset size)", len(passes), out.Result.MaxLen())
	}
	total := 0
	for _, p := range passes {
		total += p.Frequent
	}
	if total != len(out.Result.Frequent) {
		t.Errorf("pass frequent totals %d != %d itemsets", total, len(out.Result.Frequent))
	}
}

// TestPublicDeterminismUnderCancellationRace: mining a larger synthetic
// dataset with a deadline that cannot fire must equal the undeadlined
// run — the ctx checks themselves must not perturb results. Run under
// -race in CI this also exercises the parallel counting pool.
func TestPublicDeterminismUnderCancellationRace(t *testing.T) {
	table, err := datagen.PaperDataset1(datagen.DefaultSeed, datagen.DefaultRows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := qsrmine.Config{Algorithm: qsrmine.Apriori, MinSupport: 0.05}
	base, err := qsrmine.RunTable(table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	timed, err := qsrmine.RunTableContext(ctx, table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Result.Frequent) != len(timed.Result.Frequent) {
		t.Fatalf("deadlined run diverged: %d vs %d itemsets",
			len(base.Result.Frequent), len(timed.Result.Frequent))
	}
	for i := range base.Result.Frequent {
		a, b := base.Result.Frequent[i], timed.Result.Frequent[i]
		if !a.Items.Equal(b.Items) || a.Support != b.Support {
			t.Fatalf("itemset %d differs", i)
		}
	}
}
