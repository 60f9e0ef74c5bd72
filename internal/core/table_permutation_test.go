package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// canonicalOutcome renders an outcome independent of item IDs and of
// result and rule order: pass statistics, then every frequent itemset
// by its sorted names and support, and every rule by its sides' sorted
// names and every measure's bits, each list sorted.
func canonicalOutcome(out *Outcome) []string {
	d, res := out.DB.Dict, out.Result
	lines := []string{fmt.Sprintf("n=%d minsup=%d pruned=%d/%d", res.NumTransactions, res.MinSupportCount, res.PrunedDeps, res.PrunedSameFeature)}
	for _, s := range res.Stats {
		lines = append(lines, fmt.Sprintf("pass k=%d c=%d deps=%d same=%d f=%d", s.K, s.Candidates, s.PrunedDeps, s.PrunedSameFeature, s.Frequent))
	}
	names := func(ids []int32) string {
		ns := make([]string, len(ids))
		for i, id := range ids {
			ns[i] = d.Name(id)
		}
		slices.Sort(ns)
		return strings.Join(ns, "|")
	}
	var sets, rules []string
	for _, f := range res.Frequent {
		sets = append(sets, fmt.Sprintf("F %s %d", names(f.Items), f.Support))
	}
	for _, r := range out.Rules {
		rules = append(rules, fmt.Sprintf("R %s -> %s %d %x %x %x %x %x",
			names(r.Antecedent), names(r.Consequent), r.SupportCount,
			math.Float64bits(r.Support), math.Float64bits(r.Confidence), math.Float64bits(r.Lift),
			math.Float64bits(r.Leverage), math.Float64bits(r.Conviction)))
	}
	slices.Sort(sets)
	slices.Sort(rules)
	return append(append(lines, sets...), rules...)
}

// permuteTable returns a copy of t with its rows shuffled and the items
// within every row shuffled.
func permuteTable(t *dataset.Table, rng *rand.Rand) *dataset.Table {
	out := &dataset.Table{Transactions: make([]dataset.Transaction, len(t.Transactions))}
	for i, j := range rng.Perm(len(t.Transactions)) {
		tx := t.Transactions[j]
		items := slices.Clone(tx.Items)
		rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
		out.Transactions[i] = dataset.Transaction{RefID: tx.RefID, Items: items}
	}
	return out
}

// TestTablePathInvariantUnderPermutation: permuting a table's rows and
// the items within rows changes every item ID and the order of the
// frequent itemsets and of tied rules, but neither KC+ engine's pass
// statistics, frequent itemsets (by names and support) or rules (by
// names and measure bits), compared as sets.
func TestTablePathInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for name, c := range goldenTableCases(t) {
		if strings.Contains(name, "rows=20000") && !strings.Contains(name, "seed=2007") {
			continue // one 20,000-row table per dataset is enough
		}
		table, err := dataset.ReadTableCSV(bytes.NewReader(c.csv))
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{AlgAprioriKCPlus, AlgEclatKCPlus} {
			cfg := c.cfg
			cfg.Algorithm = alg
			want, err := RunTableContext(context.Background(), table, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunTableContext(context.Background(), permuteTable(table, rng), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := canonicalOutcome(got), canonicalOutcome(want); !reflect.DeepEqual(g, w) {
				t.Errorf("%s/%s: permuted table gives %d lines, want %d", name, alg, len(g), len(w))
				for i := range min(len(g), len(w)) {
					if g[i] != w[i] {
						t.Errorf("first difference: %q, want %q", g[i], w[i])
						break
					}
				}
			}
		}
	}
}
