package transact

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
)

// wideDataset builds a dataset with many reference features, so the
// parallel extraction path engages.
func wideDataset(n int) *dataset.Dataset {
	refs := dataset.NewLayer("cell")
	for i := 0; i < n; i++ {
		x := float64(i % 10 * 20)
		y := float64(i / 10 * 20)
		refs.Add(dataset.Feature{
			ID: fmt.Sprintf("C%03d", i), Geometry: geom.Rect(x, y, x+10, y+10),
			Attrs: map[string]dataset.Value{"kind": "plain"},
		})
	}
	pts := dataset.NewLayer("poi")
	for i := 0; i < n; i++ {
		pts.AddGeometry(geom.Pt(float64(i%10*20+5), float64(i/10*20+5)))
	}
	return &dataset.Dataset{
		Reference:       refs,
		Relevant:        []*dataset.Layer{pts},
		NonSpatialAttrs: []string{"kind"},
	}
}

func TestExtractContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 0} {
		opts := DefaultOptions()
		opts.Parallelism = par
		if _, err := ExtractContext(ctx, wideDataset(60), opts); !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
	}
}

func TestExtractContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	if _, err := ExtractContext(ctx, wideDataset(60), DefaultOptions()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestExtractCounters(t *testing.T) {
	tr := obs.New(nil)
	ctx := obs.WithTrace(context.Background(), tr)
	table, err := ExtractContext(ctx, wideDataset(25), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Counter("extract.rows"); got != int64(table.Len()) {
		t.Errorf("extract.rows = %d, want %d", got, table.Len())
	}
	if tr.Counter("extract.candidates") == 0 || tr.Counter("extract.items") == 0 {
		t.Errorf("counters = %v", tr.Counters())
	}
}

// TestExtractAttributesOnly: a deliberately non-zero Options with every
// relation family off emits only attribute (and is_a) items.
func TestExtractAttributesOnly(t *testing.T) {
	opts := Options{IncludeIsA: true}
	if opts.IsZero() {
		t.Fatal("options with IncludeIsA must not be zero")
	}
	table, err := Extract(smallDataset(), opts)
	if err != nil {
		t.Fatalf("attributes-only extraction must succeed: %v", err)
	}
	for _, tx := range table.Transactions {
		for _, it := range tx.Items {
			if !strings.Contains(it, "=") && !strings.HasPrefix(it, "is_a_") {
				t.Errorf("unexpected spatial item %q in attributes-only table", it)
			}
		}
		if len(tx.Items) == 0 {
			t.Errorf("transaction %s is empty", tx.RefID)
		}
	}
	if !(Options{}).IsZero() {
		t.Error("zero options must report IsZero")
	}
	if DefaultOptions().IsZero() {
		t.Error("default options must not report IsZero")
	}
}

// TestExtractParallelCancelledPromptly: cancelling mid-extraction stops
// the worker pool without waiting for the remaining rows.
func TestExtractParallelCancelledPromptly(t *testing.T) {
	d := wideDataset(100)
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions()
	opts.Parallelism = 4
	done := make(chan error, 1)
	go func() {
		_, err := ExtractContext(ctx, d, opts)
		done <- err
	}()
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want nil (finished first) or context.Canceled", err)
	}
}
