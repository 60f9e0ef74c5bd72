package mining

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/itemset"
)

// generateRulesBefore is GenerateRules as it was before rule records:
// each emitted Rule built in place, then one sort.Slice over the Rules.
// The record sort is held to it, tie order included.
func generateRulesBefore(res *Result, minConf float64) []Rule {
	n := float64(res.NumTransactions)
	var rules []Rule
	var anteBuf, consBuf [16]int32
	ante, cons := anteBuf[:0], consBuf[:0]
	for _, f := range res.Frequent {
		k := len(f.Items)
		if k < 2 {
			continue
		}
		for mask := 1; mask < (1<<k)-1; mask++ {
			ante, cons = ante[:0], cons[:0]
			for i, v := range f.Items {
				if mask&(1<<i) != 0 {
					ante = append(ante, v)
				} else {
					cons = append(cons, v)
				}
			}
			anteSup, ok := res.Support(ante)
			if !ok || anteSup == 0 {
				continue
			}
			conf := float64(f.Support) / float64(anteSup)
			if conf < minConf {
				continue
			}
			consSup, ok := res.Support(cons)
			if !ok {
				continue
			}
			consFrac := float64(consSup) / n
			rule := Rule{
				Antecedent:   append(itemset.Itemset(nil), ante...),
				Consequent:   append(itemset.Itemset(nil), cons...),
				SupportCount: f.Support,
				Support:      float64(f.Support) / n,
				Confidence:   conf,
				Leverage:     float64(f.Support)/n - float64(anteSup)/n*consFrac,
			}
			if consFrac > 0 {
				rule.Lift = conf / consFrac
			}
			if conf < 1 {
				rule.Conviction = (1 - consFrac) / (1 - conf)
			} else {
				rule.Conviction = math.Inf(1)
			}
			rules = append(rules, rule)
		}
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Confidence != rules[j].Confidence {
			return rules[i].Confidence > rules[j].Confidence
		}
		if rules[i].Support != rules[j].Support {
			return rules[i].Support > rules[j].Support
		}
		return len(rules[i].Antecedent) < len(rules[j].Antecedent)
	})
	return rules
}

// sameRules reports whether two rule lists are equal in order, sides
// and every measure's bits, nil-ness included.
func sameRules(a, b []Rule) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if !x.Antecedent.Equal(y.Antecedent) || !x.Consequent.Equal(y.Consequent) ||
			x.SupportCount != y.SupportCount || bits(x.Support) != bits(y.Support) ||
			bits(x.Confidence) != bits(y.Confidence) || bits(x.Lift) != bits(y.Lift) ||
			bits(x.Leverage) != bits(y.Leverage) || bits(x.Conviction) != bits(y.Conviction) {
			return false
		}
	}
	return true
}

// latticeResult is a tie-heavy synthetic result: every subset of m
// items up to size maxK, with support sup(|S|). When sup is constant
// every rule has confidence 1 and one support, so whole classes of
// equal sort keys straddle every chunk boundary.
func latticeResult(m, maxK, n int, sup func(k int) int) *Result {
	res := &Result{NumTransactions: n}
	var walk func(prefix itemset.Itemset, next int32, k int)
	walk = func(prefix itemset.Itemset, next int32, k int) {
		if len(prefix) == k {
			res.Frequent = append(res.Frequent, FrequentItemset{Items: append(itemset.Itemset(nil), prefix...), Support: sup(k)})
			return
		}
		for id := next; id < int32(m); id++ {
			walk(append(prefix, id), id+1, k)
		}
	}
	for k := 1; k <= maxK; k++ {
		walk(nil, 0, k)
	}
	return res
}

// ruleCase is one GenerateRules input.
type ruleCase struct {
	res     *Result
	minConf float64
}

// chunkRuleCases are GenerateRules inputs for the chunk-count tests.
func chunkRuleCases(t testing.TB) map[string]ruleCase {
	cases := map[string]ruleCase{
		"empty":       {&Result{NumTransactions: 5}, 0},
		"singletons":  {latticeResult(6, 1, 10, func(int) int { return 4 }), 0},
		"flat ties":   {latticeResult(7, 4, 50, func(int) int { return 10 }), 0},
		"graded ties": {latticeResult(8, 4, 40, func(k int) int { return 30 - 5*k }), 0.5},
	}
	deps := make([]Pair, len(datagen.Dataset1Dependencies))
	for i, p := range datagen.Dataset1Dependencies {
		deps[i] = Pair{A: p.A, B: p.B}
	}
	for _, seed := range []int64{1, 2007} {
		d1, err := datagen.PaperDataset1(seed, 2000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := AprioriKCPlus(itemset.NewDB(d1), Config{MinSupport: 0.01, Dependencies: deps})
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("dataset1/seed=%d", seed)] = ruleCase{res, 0.7}
		d2, err := datagen.PaperDataset2(seed, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = AprioriKCPlus(itemset.NewDB(d2), Config{MinSupport: 0.05}); err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("dataset2/seed=%d", seed)] = ruleCase{res, 0.3}
	}
	return cases
}

// TestGenerateRulesChunks requires every chunk count from 1 to 8 to
// give the rules of the enumerator before rule records, in the same
// order and with the same bits, ties included.
func TestGenerateRulesChunks(t *testing.T) {
	for name, c := range chunkRuleCases(t) {
		want := generateRulesBefore(c.res, c.minConf)
		for chunks := 1; chunks <= 8; chunks++ {
			got := generateRules(&Result{Frequent: c.res.Frequent, NumTransactions: c.res.NumTransactions}, c.minConf, chunks)
			if !sameRules(got, want) {
				t.Errorf("%s at %d chunks: %d rules differ from the %d before records", name, chunks, len(got), len(want))
			}
			for i, r := range got {
				if cap(r.Antecedent) != len(r.Antecedent) || cap(r.Consequent) != len(r.Consequent) {
					t.Errorf("%s at %d chunks: rule %d's sides are not capacity-capped", name, chunks, i)
					break
				}
			}
		}
	}
}

// BenchmarkGenerateRulesChunks derives the rules of prefixes of the
// cli-table result (every itemset of a prefix has its subsets before
// it) as one chunk and as two. Two chunks on two cores win by about
// 15 % from 4,096 masks in all; ruleChunkMasks is set from this.
func BenchmarkGenerateRulesChunks(b *testing.B) {
	t, err := datagen.PaperDataset1(2007, 20000)
	if err != nil {
		b.Fatal(err)
	}
	deps := make([]Pair, len(datagen.Dataset1Dependencies))
	for i, p := range datagen.Dataset1Dependencies {
		deps[i] = Pair{A: p.A, B: p.B}
	}
	res, err := AprioriKCPlus(itemset.NewDB(t), Config{MinSupport: 0.01, Dependencies: deps})
	if err != nil {
		b.Fatal(err)
	}
	for _, target := range []int{1024, 2048, 4096, 8192, math.MaxInt} {
		end, masks := 0, 0
		for end < len(res.Frequent) && masks < target {
			masks += setMasks(len(res.Frequent[end].Items))
			end++
		}
		for _, chunks := range []int{1, 2} {
			b.Run(fmt.Sprintf("masks=%d/chunks=%d", masks, chunks), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchRules = generateRules(&Result{Frequent: res.Frequent[:end], NumTransactions: res.NumTransactions}, 0.7, chunks)
				}
			})
		}
	}
}
