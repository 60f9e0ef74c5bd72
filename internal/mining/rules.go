package mining

import (
	"cmp"
	"context"
	"math"
	"slices"
	"strings"

	"repro/internal/itemset"
	"repro/internal/par"
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
// an antecedent and its complement; each split that makes a rule is
// kept as a small pointer-free ruleRecord, and the records are sorted
// before any Rule is built. The sort is not stable, so this emission
// order decides how ties come out, and rule order reaches CLI output,
// /v1/mine bodies, the result cache and persisted results: keep the
// order, the comparator and the sort algorithm as they are. A result of
// at least twice ruleChunkMasks masks is walked in contiguous chunks on
// up to GOMAXPROCS workers, with the same rules in the same order.
func GenerateRules(res *Result, minConf float64) []Rule {
	return generateRules(res, minConf, par.Workers(0, ruleMasks(res.Frequent)/ruleChunkMasks))
}

// ruleChunkMasks is the least number of masks a GenerateRules worker is
// given. In BenchmarkGenerateRulesChunks on the 2-core reference host
// two chunks beat one by about 15 % from 4,096 masks and by less than
// the noise at 2,048. The cli-table result has 16,758.
const ruleChunkMasks = 4096

// setMasks is the number of antecedent masks of a k-itemset: every
// non-empty proper subset.
func setMasks(k int) int {
	if k < 2 {
		return 0
	}
	return 1<<k - 2
}

// ruleMasks is the number of antecedent masks of all of fs.
func ruleMasks(fs []FrequentItemset) int {
	n := 0
	for _, f := range fs {
		n += setMasks(len(f.Items))
	}
	return n
}

// ruleRecord is one emitted rule before it is built: the index of its
// frequent itemset in Result.Frequent, its antecedent mask, both sides'
// supports and the three sort keys. It holds no pointer, so the sort's
// swaps pay no write barrier, and it is half the size of a Rule.
type ruleRecord struct {
	conf, support    float64
	anteSup, consSup int
	mask             int
	set, anteLen     int32
}

// generateRules cuts res.Frequent into at most chunks pieces of about
// equal mask count and records each piece's rules on a par pool. The
// records, concatenated in chunk order, are the one-piece emission
// order. slices.SortFunc runs the pdqsort sort.Slice runs, generated
// from one template, and consults the comparator only as cmp(a, b) < 0,
// which holds exactly when the old sort.Slice less function held; so
// the one sort over the records makes the same comparisons and yields
// the permutation sort.Slice gave the Rules, ties included, without its
// reflective swaps. The rules are then built in sorted order at their
// exact count, both sides of every rule cut from one arena of exact
// size, with the measures' expressions unchanged.
func generateRules(res *Result, minConf float64, chunks int) []Rule {
	// Build the support index before the workers all wait on it.
	res.supportOnce.Do(res.indexSupports)
	total := ruleMasks(res.Frequent)
	// Piece c is res.Frequent[cuts[c]:cuts[c+1]]: a cut goes after the
	// itemset whose masks reach the next c/chunks of the total.
	cuts := make([]int, 1, chunks+1)
	run := 0
	for i, f := range res.Frequent {
		run += setMasks(len(f.Items))
		for len(cuts) < chunks && run*chunks >= total*len(cuts) && run > 0 {
			cuts = append(cuts, i+1)
		}
	}
	cuts = append(cuts, len(res.Frequent))
	pieces := make([][]ruleRecord, len(cuts)-1)
	// context.TODO never cancels, so For always runs every piece.
	_ = par.For(context.TODO(), len(pieces), par.Workers(0, len(pieces)), func(_, c int) {
		pieces[c] = res.recordRules(cuts[c], cuts[c+1], minConf)
	})
	recs := pieces[0]
	if len(pieces) > 1 {
		recs = slices.Concat(pieces...)
	}
	if len(recs) == 0 {
		return nil
	}
	slices.SortFunc(recs, func(a, b ruleRecord) int {
		if a.conf != b.conf {
			if a.conf > b.conf {
				return -1
			}
			return 1
		}
		if a.support != b.support {
			if a.support > b.support {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.anteLen, b.anteLen)
	})
	size := 0
	for _, r := range recs {
		size += len(res.Frequent[r.set].Items)
	}
	arena := make([]int32, 0, size)
	n := float64(res.NumTransactions)
	rules := make([]Rule, len(recs))
	for i, r := range recs {
		f := res.Frequent[r.set]
		lo, mid := len(arena), len(arena)+int(r.anteLen)
		arena = arena[:lo+len(f.Items)]
		a, c := lo, mid
		for b, v := range f.Items {
			if r.mask&(1<<b) != 0 {
				arena[a] = v
				a++
			} else {
				arena[c] = v
				c++
			}
		}
		consFrac := float64(r.consSup) / n
		rule := Rule{
			// Capacity-capped, so an append to one side never reaches
			// the other side or the next rule.
			Antecedent:   itemset.Itemset(arena[lo:mid:mid]),
			Consequent:   itemset.Itemset(arena[mid:len(arena):len(arena)]),
			SupportCount: f.Support,
			Support:      r.support,
			Confidence:   r.conf,
			Leverage:     float64(f.Support)/n - float64(r.anteSup)/n*consFrac,
		}
		if consFrac > 0 {
			rule.Lift = r.conf / consFrac
		}
		if r.conf < 1 {
			rule.Conviction = (1 - consFrac) / (1 - r.conf)
		} else {
			rule.Conviction = math.Inf(1)
		}
		rules[i] = rule
	}
	return rules
}

// recordRules records the rules of res.Frequent[lo:hi] in emission
// order: itemsets in result order, each itemset's masks ascending. Each
// split is written to two stack buffers, and both sides' supports are
// looked up without allocating.
func (res *Result) recordRules(lo, hi int, minConf float64) []ruleRecord {
	n := float64(res.NumTransactions)
	var recs []ruleRecord
	var anteBuf, consBuf [16]int32
	ante, cons := anteBuf[:0], consBuf[:0]
	for set := lo; set < hi; set++ {
		f := res.Frequent[set]
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
			recs = append(recs, ruleRecord{
				conf:    conf,
				support: float64(f.Support) / n,
				anteSup: anteSup,
				consSup: consSup,
				mask:    mask,
				set:     int32(set),
				anteLen: int32(len(ante)),
			})
		}
	}
	return recs
}
