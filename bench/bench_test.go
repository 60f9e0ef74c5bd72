package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// toyConfig runs a workload at toy size for about 300 ms.
func toyConfig(t *testing.T, trace bool) config {
	return config{seed: 7, window: 300 * time.Millisecond, trace: trace, size: toy, start: time.Now(), out: t.TempDir()}
}

// TestWorkloadsAtToySize runs every workload untraced and traced and
// checks that each reports every metric of its mode, with its unit, and
// that no op failed.
func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			run, err := runWorkload(context.Background(), w, toyConfig(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res, values := run.Result, run.Values
			if !res.Correct || res.Failed != 0 || values["fail_ratio"] != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptedAnchorCountsAsFailure checks that an op whose answer
// differs from the expected one is counted as failed.
func TestCorruptedAnchorCountsAsFailure(t *testing.T) {
	for _, w := range workloads {
		cfg := toyConfig(t, false)
		cfg.corruptAnchor = true
		run, err := runWorkload(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		res := run.Result
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted anchor gave correct=%v failed=%d of %d", w.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the metric catalogue
// and the workload list, and against the limits of its schema.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", doc.RunSeconds)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, want at most 64 KiB", len(data))
	}
	if len(doc.Command) == 0 || len(doc.Command) > 32 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("command %q / paths %q", doc.Command, doc.Paths)
	}
	for _, w := range doc.Workloads {
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, group := range [][]entry{doc.Workloads, doc.EndToEnd, doc.PerLayer} {
		for _, e := range group {
			if !nameRE.MatchString(e.Name) || seen[e.Name] {
				t.Errorf("name %q is malformed or used twice", e.Name)
			}
			if e.Why == "" && !unitRE.MatchString(e.Unit) {
				t.Errorf("%s: malformed unit %q", e.Name, e.Unit)
			}
			seen[e.Name] = true
		}
	}

	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, e := range doc.Workloads {
		if i < len(workloads) && e.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, e.Name, workloads[i].name)
		}
	}
	check := func(kind string, entries []entry, defs []metricDef) {
		if len(entries) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(entries), len(defs))
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, e := range entries {
			if u, ok := units[e.Name]; !ok || u != e.Unit {
				t.Errorf("%s: %s [%s] is not reported with that unit (benchmark: %q)", kind, e.Name, e.Unit, u)
			}
			if e.Better != "lower" && e.Better != "higher" {
				t.Errorf("%s: %s has better=%q", kind, e.Name, e.Better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, e := range doc.EndToEnd {
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound must be in (0, 0.25]", e.Name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}
