package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of qsrmine or qsrmined sees. An
// untraced run (-trace 0) reports exactly these, for every workload.
var endToEnd = []metricDef{
	{"throughput_ops_ref", "1/ref"},
	{"latency_p50_ref", "ref"},
	{"latency_p90_ref", "ref"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
}

// serveKinds are the serve-mix op kinds, in session order.
var serveKinds = []string{"upload", "mine_cold", "mine_hit", "patch", "mine_delta", "colocate", "delete"}

// perLayer are the metrics of single layers. A traced run (-trace 1)
// reports exactly these, for every workload; a layer the workload does
// not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"throughput_ops_s", "1/s"},
		{"latency_p50_ms", "ms"},
		{"latency_p90_ms", "ms"},
		{"reference_ms", "ms"},
		{"bench.traced_op_ms", "ms"},
		{"bench.layer_sum_ms", "ms"},
		{"bench.trace_overhead_pct", "%"},
		{"dataset.parse_ms", "ms"},
		{"transact.extract_ms", "ms"},
		{"geom.prepare_ms", "ms"},
		{"index.build_ms", "ms"},
		{"index.search_ms", "ms"},
		{"qsr.relate_ms", "ms"},
		{"transact.other_ms", "ms"},
		{"transact.candidates_per_row", "count"},
		{"transact.relates_per_row", "count"},
		{"transact.refine_skip_ratio", "ratio"},
		{"transact.items_per_row", "count"},
		{"itemset.intern_ms", "ms"},
		{"mining.mine_ms", "ms"},
		{"mining.candidates", "count"},
		{"mining.frequent_per_candidate", "ratio"},
		{"mining.rules_ms", "ms"},
		{"mining.rules", "count"},
		{"colocation.neighbors_ms", "ms"},
		{"colocation.walk_ms", "ms"},
		{"colocation.other_ms", "ms"},
		{"colocation.refined_per_candidate", "ratio"},
		{"colocation.star_pruned", "count"},
		{"colocation.rows_peak", "count"},
		{"transact.delta_ms", "ms"},
		{"transact.delta_dirty_ratio", "ratio"},
		{"mining.patch_ms", "ms"},
		{"server.cache_hit_ratio", "ratio"},
	}
	for _, k := range serveKinds {
		if k != "delete" {
			defs = append(defs, metricDef{k + "_p50_ms", "ms"})
		}
	}
	for _, k := range serveKinds {
		for _, layer := range []string{"client.rtt_ms.", "client.decode_ms.", "server.handler_ms.", "server.stage_ms.", "server.other_ms."} {
			defs = append(defs, metricDef{layer + k, "ms"})
		}
	}
	return defs
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pick returns the metrics of defs from values, with their units; a
// value the run did not produce reads 0.
func pick(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// quantile returns the q-quantile of sorted by linear interpolation
// between the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive"
// method), so the spreads -summarize prints are the ones a Python
// analysis of the same records computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
