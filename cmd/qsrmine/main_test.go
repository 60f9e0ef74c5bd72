package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	qsrmine "repro"
)

func TestParseDeps(t *testing.T) {
	deps, err := parseDeps("a:b,contains_street:contains_illuminationPoint")
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 2 || deps[0].A != "a" || deps[0].B != "b" ||
		deps[1].A != "contains_street" {
		t.Errorf("deps = %+v", deps)
	}
	// Item names containing '=' work because ':' separates pairs.
	deps, err = parseDeps("murderRate=high:contains_slum")
	if err != nil {
		t.Fatal(err)
	}
	if deps[0].A != "murderRate=high" {
		t.Errorf("attr item dep = %+v", deps[0])
	}
	if got, err := parseDeps(""); err != nil || got != nil {
		t.Error("empty spec must be a nil no-op")
	}
	for _, bad := range []string{"justoneitem", "a:", ":b", "a:b,,"} {
		if _, err := parseDeps(bad); err == nil {
			t.Errorf("parseDeps(%q) should fail", bad)
		}
	}
}

func TestEclatAlgorithmSelectable(t *testing.T) {
	// -alg eclat resolves through the TextUnmarshaler to the Eclat
	// engine and mines the same pattern set as apriori-kc+.
	var alg qsrmine.Algorithm
	for _, spelling := range []string{"eclat", "eclat-kc+"} {
		if err := alg.UnmarshalText([]byte(spelling)); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", spelling, err)
		}
		if alg != qsrmine.EclatKCPlus {
			t.Fatalf("%q parsed to %v", spelling, alg)
		}
	}
	ec, err := qsrmine.RunTable(qsrmine.Table2Reconstruction(), qsrmine.Config{
		Algorithm:  qsrmine.EclatKCPlus,
		MinSupport: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := qsrmine.RunTable(qsrmine.Table2Reconstruction(), qsrmine.Config{
		Algorithm:  qsrmine.AprioriKCPlus,
		MinSupport: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ec.Result.Frequent) != len(ap.Result.Frequent) {
		t.Errorf("eclat mined %d itemsets, apriori-kc+ %d",
			len(ec.Result.Frequent), len(ap.Result.Frequent))
	}
}

func TestCountingStrategyFlag(t *testing.T) {
	// -counting parses via encoding.TextUnmarshaler, like -alg.
	var c qsrmine.CountingStrategy
	for spelling, want := range map[string]qsrmine.CountingStrategy{
		"vertical":   qsrmine.VerticalCounting,
		"horizontal": qsrmine.HorizontalCounting,
	} {
		if err := c.UnmarshalText([]byte(spelling)); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", spelling, err)
		}
		if c != want {
			t.Errorf("%q parsed to %v", spelling, c)
		}
	}
	if err := c.UnmarshalText([]byte("diagonal")); err == nil {
		t.Error("bogus counting strategy must fail to parse")
	}
}

func TestEclatRejectsHorizontalCountingConfig(t *testing.T) {
	// An explicitly requested horizontal strategy cannot be honoured by
	// the vertical eclat engine: the run must fail with a clear config
	// error instead of silently dropping the setting.
	_, err := qsrmine.RunTable(qsrmine.Table2Reconstruction(), qsrmine.Config{
		Algorithm:  qsrmine.EclatKCPlus,
		MinSupport: 0.5,
		Counting:   qsrmine.HorizontalCounting,
	})
	if err == nil {
		t.Fatal("eclat with horizontal counting must fail")
	}
	if !strings.Contains(err.Error(), "horizontal") {
		t.Errorf("error %q does not name the strategy", err)
	}
	// The apriori engines still honour it.
	out, err := qsrmine.RunTable(qsrmine.Table2Reconstruction(), qsrmine.Config{
		Algorithm:  qsrmine.AprioriKCPlus,
		MinSupport: 0.5,
		Counting:   qsrmine.HorizontalCounting,
	})
	if err != nil {
		t.Fatalf("apriori with horizontal counting: %v", err)
	}
	if len(out.Result.Frequent) == 0 {
		t.Error("horizontal apriori mined nothing")
	}
}

func TestParallelismPlumbsToEclat(t *testing.T) {
	// -parallelism reaches the eclat walk through core.Config and the
	// results match the sequential run exactly.
	run := func(par int) *qsrmine.Outcome {
		t.Helper()
		out, err := qsrmine.RunTable(qsrmine.Table2Reconstruction(), qsrmine.Config{
			Algorithm:   qsrmine.EclatKCPlus,
			MinSupport:  0.34,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(8)
	if len(seq.Result.Frequent) != len(par.Result.Frequent) {
		t.Fatalf("sequential %d vs parallel %d itemsets",
			len(seq.Result.Frequent), len(par.Result.Frequent))
	}
	for i := range seq.Result.Frequent {
		a, b := seq.Result.Frequent[i], par.Result.Frequent[i]
		if !a.Items.Equal(b.Items) || a.Support != b.Support {
			t.Fatalf("itemset %d differs: %v/%d vs %v/%d", i, a.Items, a.Support, b.Items, b.Support)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	out, err := qsrmine.RunTable(qsrmine.Table2Reconstruction(), qsrmine.Config{
		Algorithm:     qsrmine.AprioriKCPlus,
		MinSupport:    0.5,
		GenerateRules: true,
		MinConfidence: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, "apriori-kc+", out, true); err != nil {
		t.Fatal(err)
	}
	var decoded jsonOutput
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if decoded.Algorithm != "apriori-kc+" || decoded.Transactions != 6 {
		t.Errorf("decoded header = %+v", decoded)
	}
	if len(decoded.Frequent) != 30 {
		t.Errorf("frequent itemsets in JSON = %d, want 30", len(decoded.Frequent))
	}
	if decoded.PrunedSameFeature != 4 {
		t.Errorf("prunedSameFeature = %d", decoded.PrunedSameFeature)
	}
	if len(decoded.Rules) == 0 {
		t.Error("rules missing from JSON")
	}
	// Without rules, the field is omitted.
	buf.Reset()
	if err := writeJSON(&buf, "apriori", out, false); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"rules"`)) {
		t.Error("rules present despite withRules=false")
	}
}

// TestRunBadFlagsErrorNotOnStdout pins the CLI contract: bad flag
// combinations make run return an error (main then exits non-zero and
// prints it to stderr) while stdout stays clean of error text.
func TestRunBadFlagsErrorNotOnStdout(t *testing.T) {
	cases := [][]string{
		{"-sample", "-closed", "-maximal"}, // mutually exclusive post filters
		{},                                 // no input selected
		{"-sample", "-format", "sideways"}, // unknown output format
		{"-sample", "-deps", "broken"},     // malformed dependency spec
		{"-alg", "bogus", "-sample"},       // unknown algorithm (flag parse error)
		{"-table", "/no/such/file.csv"},    // unreadable input
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
			continue
		}
		if strings.Contains(stdout.String(), err.Error()) {
			t.Errorf("run(%q) wrote its error to stdout: %q", args, stdout.String())
		}
	}
	// Flag parse failures (as opposed to post-parse validation) carry
	// errUsage so main exits 2, the usual usage-error code.
	var pout, perr bytes.Buffer
	if err := run([]string{"-alg", "bogus", "-sample"}, &pout, &perr); !errors.Is(err, errUsage) {
		t.Errorf("flag parse failure %v is not errUsage", err)
	}
	// The unknown-format case must not have mined to stdout before
	// failing either.
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sample", "-format", "sideways"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown format must fail")
	} else if !strings.Contains(err.Error(), "sideways") {
		t.Errorf("error %q does not name the bad format", err)
	}
}

// TestRunVersionFlag: -version prints the build stamp to stdout and
// exits successfully without mining.
func TestRunVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-version"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "qsrmine ") {
		t.Errorf("-version stdout = %q", stdout.String())
	}
	if strings.Contains(stdout.String(), "frequent itemsets") {
		t.Error("-version must not mine")
	}
}

// TestRunSampleToBuffers smoke-tests the happy path through the
// injectable writers: results on stdout, trace on stderr.
func TestRunSampleToBuffers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sample", "-minsup", "0.5", "-trace"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "frequent itemsets") {
		t.Errorf("stdout missing results: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "[trace]") {
		t.Errorf("stderr missing trace lines: %q", stderr.String())
	}
}

func TestRunMutateFlag(t *testing.T) {
	// -mutate applies the ops file before mining and goes through the
	// incremental re-extraction path, so the trace carries delta.*
	// counters and the mined table reflects the edit.
	dir := t.TempDir()
	path := filepath.Join(dir, "edits.json")
	ops := `{"ops":[{"action":"insert","layer":"slum","id":"slumX","wkt":"POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))"}]}`
	if err := os.WriteFile(path, []byte(ops), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sample", "-minsup", "0.3", "-mutate", path, "-trace"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "frequent itemsets") {
		t.Errorf("stdout missing results: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "delta.rows.total") {
		t.Errorf("stderr missing incremental-extraction counters: %q", stderr.String())
	}

	// The mutated run must equal mining the mutated dataset from
	// scratch (oracle check over the JSON output).
	var mutated, oracle bytes.Buffer
	if err := run([]string{"-sample", "-minsup", "0.3", "-mutate", path, "-format", "json"}, &mutated, io.Discard); err != nil {
		t.Fatal(err)
	}
	ds := qsrmine.PortoAlegreScene()
	m, err := qsrmine.LoadMutation(path)
	if err != nil {
		t.Fatal(err)
	}
	nd, _, err := ds.ApplyOps(m.Ops)
	if err != nil {
		t.Fatal(err)
	}
	f := filepath.Join(dir, "mutated.json")
	w, err := os.Create(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.WriteJSON(w); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := run([]string{"-data", f, "-minsup", "0.3", "-format", "json"}, &oracle, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got, want := stripTiming(t, mutated.Bytes()), stripTiming(t, oracle.Bytes()); got != want {
		t.Errorf("mutated run diverged from from-scratch oracle:\n%s\nvs\n%s", got, want)
	}
}

// stripTiming removes the wall-clock field from a JSON result so runs
// compare on substance.
func stripTiming(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "miningMicros")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestRunMutateFlagErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "edits.json")
	if err := os.WriteFile(good, []byte(`{"ops":[{"action":"delete","layer":"slum","id":"nope"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// -mutate is a scene operation: combined with -table it must fail.
	csv := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(csv, []byte("r1,a,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-table", csv, "-mutate", good}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-mutate") {
		t.Errorf("-table with -mutate: err = %v", err)
	}
	// Deleting a feature that does not exist fails atomically.
	if err := run([]string{"-sample", "-mutate", good}, io.Discard, io.Discard); err == nil {
		t.Error("deleting unknown feature should fail")
	}
	// Unknown fields, empty batches and anything after the document are
	// rejected by the loader, even when the ops themselves would apply.
	insert := `{"ops":[{"action":"insert","layer":"slum","id":"slumX","wkt":"POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))"}]}`
	for name, body := range map[string]string{
		"typo.json":            `{"opps":[]}`,
		"empty.json":           `{"ops":[]}`,
		"trailing.json":        insert + " trailing",
		"second-document.json": insert + insert,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-sample", "-mutate", p}, io.Discard, io.Discard); err == nil {
			t.Errorf("%s should fail to load", name)
		}
	}
	if err := run([]string{"-sample", "-mutate", filepath.Join(dir, "missing.json")}, io.Discard, io.Discard); err == nil {
		t.Error("missing mutation file should fail")
	}
}
