package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestRunColocateSample: -colocate on the sample scene prints the
// co-location report, and the result is independent of GOMAXPROCS, the
// width of the co-location pools.
func TestRunColocateSample(t *testing.T) {
	args := []string{"-sample", "-colocate", "-dist", "3", "-minpi", "0.2"}
	var base bytes.Buffer
	var stderr bytes.Buffer
	var err error
	withProcs(1, func() { err = run(args, &base, &stderr) })
	if err != nil {
		t.Fatal(err)
	}
	out := base.String()
	for _, want := range []string{"co-location mining:", "prevalent patterns:", "PI "} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "frequent itemsets") {
		t.Error("-colocate must not run transaction mining")
	}

	// Same flags at GOMAXPROCS 4: identical patterns (the timing line
	// differs, so compare everything after it).
	var par bytes.Buffer
	withProcs(4, func() { err = run(args, &par, &stderr) })
	if err != nil {
		t.Fatal(err)
	}
	if basePat, parPat := afterTimingLine(out), afterTimingLine(par.String()); basePat != parPat {
		t.Errorf("patterns differ across GOMAXPROCS:\n--- procs=1\n%s\n--- procs=4\n%s", basePat, parPat)
	}
}

// withProcs runs fn with GOMAXPROCS set to procs, the width of every
// pool a run starts.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestRunColocateTopK: -coloc-topk truncates the report to k patterns.
func TestRunColocateTopK(t *testing.T) {
	var full, topk, stderr bytes.Buffer
	if err := run([]string{"-sample", "-colocate", "-dist", "3", "-minpi", "0.2", "-format", "json"}, &full, &stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sample", "-colocate", "-dist", "3", "-minpi", "0.2", "-format", "json", "-coloc-topk", "1"}, &topk, &stderr); err != nil {
		t.Fatal(err)
	}
	var a, b struct {
		Prevalent []json.RawMessage `json:"prevalent"`
	}
	if err := json.Unmarshal(full.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(topk.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if len(a.Prevalent) < 2 {
		t.Fatalf("sample scene too sparse to test truncation: %d prevalent", len(a.Prevalent))
	}
	if len(b.Prevalent) != 1 {
		t.Fatalf("-coloc-topk 1 kept %d patterns", len(b.Prevalent))
	}
}

// afterTimingLine drops everything up to and including the wall-time
// line, leaving only deterministic output.
func afterTimingLine(s string) string {
	_, rest, ok := strings.Cut(s, "mining time:")
	if !ok {
		return s
	}
	_, rest, _ = strings.Cut(rest, "\n")
	return rest
}

// TestRunColocateJSON: -format json emits the wire-shaped schema with
// sorted prevalent patterns.
func TestRunColocateJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sample", "-colocate", "-dist", "3", "-minpi", "0.2", "-format", "json"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Distance  float64 `json:"distance"`
		MinPI     float64 `json:"minPI"`
		Instances int     `json:"instances"`
		Prevalent []struct {
			Types              []string `json:"types"`
			ParticipationIndex float64  `json:"participationIndex"`
			RowInstances       int      `json:"rowInstances"`
		} `json:"prevalent"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("output is not the colocate JSON schema: %v\n%s", err, stdout.String())
	}
	if got.Distance != 3 || got.MinPI != 0.2 || got.Instances == 0 || len(got.Prevalent) == 0 {
		t.Fatalf("unexpected JSON result: %+v", got)
	}
	for _, p := range got.Prevalent {
		if len(p.Types) == 0 || p.ParticipationIndex < 0.2 || p.RowInstances == 0 {
			t.Errorf("implausible pattern %+v", p)
		}
	}
}

// TestRunColocateFlagErrors: the -colocate flag combinations that must
// be rejected before any mining happens.
func TestRunColocateFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-table", "x.csv", "-colocate"}, "geometric scene"},
		{[]string{"-sample", "-colocate", "-mutate", "edits.json"}, "mutually exclusive"},
		{[]string{"-sample", "-colocate", "-dist", "-1"}, "distance"},
		{[]string{"-sample", "-colocate", "-minpi", "0"}, "minPI"},
		{[]string{"-sample", "-colocate", "-format", "sideways"}, "sideways"},
		{[]string{"-sample", "-colocate", "-coloc-engine", "clique"}, "coloc-engine"}, // removed flag
		{[]string{"-sample", "-colocate", "-coloc-topk", "-2"}, "topK"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%q) succeeded, want error", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) error %q, want mention of %q", tc.args, err, tc.want)
		}
		if stdout.String() != "" && strings.Contains(stdout.String(), "co-location") {
			t.Errorf("run(%q) mined before failing: %q", tc.args, stdout.String())
		}
	}
}
