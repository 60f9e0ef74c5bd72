package mining

import (
	"math"
	"sort"
	"strings"

	"repro/internal/itemset"
)

// Rule is an association rule A -> C with the standard interestingness
// measures. Support figures are relative (fractions of the database).
type Rule struct {
	Antecedent, Consequent itemset.Itemset
	// SupportCount is the absolute support of A ∪ C.
	SupportCount int
	// Support = sup(A ∪ C) / N.
	Support float64
	// Confidence = sup(A ∪ C) / sup(A).
	Confidence float64
	// Lift = confidence / (sup(C) / N); > 1 indicates positive
	// correlation.
	Lift float64
	// Leverage = sup(AC)/N − sup(A)/N · sup(C)/N.
	Leverage float64
	// Conviction = (1 − sup(C)/N) / (1 − confidence); +Inf for exact
	// rules.
	Conviction float64
}

// Format renders the rule in the paper's arrow notation.
func (r Rule) Format(d *itemset.Dictionary) string {
	return strings.TrimPrefix(r.Antecedent.Format(d), "") + " -> " + r.Consequent.Format(d)
}

// GenerateRules derives all association rules with confidence >= minConf
// from the frequent itemsets of a mining result. Rules are ordered by
// descending confidence, then descending support, then antecedent size.
//
// Every frequent itemset is split by every mask in ascending order into
// an antecedent and its complement, written to reused scratch buffers;
// only an emitted rule is copied out. sort.Slice is not stable, so this
// emission order decides how ties come out, and rule order reaches CLI
// output, /v1/mine bodies, the result cache and persisted results: keep
// both the order and the comparator as they are.
func GenerateRules(res *Result, minConf float64) []Rule {
	n := float64(res.NumTransactions)
	var rules []Rule
	var anteBuf, consBuf [16]int32
	ante, cons := anteBuf[:0], consBuf[:0]
	// The emitted sides are carved from a chunked arena, one k-item
	// block per rule.
	var arena []int32
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
			if len(arena)+k > cap(arena) {
				arena = make([]int32, 0, max(ruleArenaChunk, k))
			}
			lo, mid := len(arena), len(arena)+len(ante)
			arena = append(append(arena, ante...), cons...)
			consFrac := float64(consSup) / n
			rule := Rule{
				// Capacity-capped, so an append to one side never
				// reaches the other side or the next rule.
				Antecedent:   itemset.Itemset(arena[lo:mid:mid]),
				Consequent:   itemset.Itemset(arena[mid:len(arena):len(arena)]),
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

// ruleArenaChunk is the number of item IDs one arena chunk of
// GenerateRules holds.
const ruleArenaChunk = 4096
