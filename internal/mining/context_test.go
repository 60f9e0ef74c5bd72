package mining

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/obs"
)

// ctxTable builds a table wide enough for several passes.
func ctxTable() *dataset.Table {
	var rows []dataset.Transaction
	for r := 0; r < 40; r++ {
		var items []string
		for i := 0; i < 12; i++ {
			if (r+i)%3 != 0 {
				items = append(items, fmt.Sprintf("item%02d", i))
			}
		}
		rows = append(rows, dataset.Transaction{RefID: fmt.Sprintf("R%d", r), Items: items})
	}
	return dataset.NewTable(rows)
}

func TestMineContextPreCancelled(t *testing.T) {
	db := itemset.NewDB(ctxTable())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineContext(ctx, db, Config{MinSupport: 0.2}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// passCanceller cancels at the first pass event, so the k=2 boundary
// check fires deterministically.
type passCanceller struct{ cancel context.CancelFunc }

func (s *passCanceller) Emit(e obs.Event) {
	if e.Kind == obs.KindPass {
		s.cancel()
	}
}

func TestMineContextCancelBetweenPasses(t *testing.T) {
	db := itemset.NewDB(ctxTable())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := obs.New(&passCanceller{cancel: cancel})
	res, err := MineContext(obs.WithTrace(ctx, tr), db, Config{MinSupport: 0.2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled mine must not return a partial result")
	}
}

// TestMineParallelismDeterministic asserts identical frequent itemsets
// at GOMAXPROCS 1 and at the host's GOMAXPROCS — run under -race in CI,
// this is also the data-race canary for the counting worker pool.
func TestMineParallelismDeterministic(t *testing.T) {
	table := ctxTable()
	var seq *Result
	var err error
	withProcs(1, func() { seq, err = Mine(itemset.NewDB(table), Config{MinSupport: 0.1}) })
	if err != nil {
		t.Fatal(err)
	}
	par, err := Mine(itemset.NewDB(table), Config{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Frequent) != len(par.Frequent) {
		t.Fatalf("sequential %d vs parallel %d itemsets", len(seq.Frequent), len(par.Frequent))
	}
	for i := range seq.Frequent {
		a, b := seq.Frequent[i], par.Frequent[i]
		if !a.Items.Equal(b.Items) || a.Support != b.Support {
			t.Fatalf("itemset %d differs: %v/%d vs %v/%d", i, a.Items, a.Support, b.Items, b.Support)
		}
	}
}

func TestMineContextEmitsPassEvents(t *testing.T) {
	c := obs.NewCollector()
	ctx := obs.WithTrace(context.Background(), obs.New(c))
	res, err := MineContext(ctx, itemset.NewDB(ctxTable()), Config{MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	passes := c.Passes()
	if len(passes) != len(res.Stats) {
		t.Fatalf("pass events = %d, want %d", len(passes), len(res.Stats))
	}
	for i, p := range passes {
		s := res.Stats[i]
		if p.K != s.K || p.Candidates != s.Candidates || p.Frequent != s.Frequent {
			t.Errorf("pass %d event %+v != stat %+v", i, p, s)
		}
	}
}
