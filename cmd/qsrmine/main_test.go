package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	qsrmine "repro"
	"repro/internal/datagen"
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

// TestCountingStrategyFlag: supports are counted one way, so there is
// no -counting flag. A script that still passes it gets a usage error
// (main exits 2) naming the flag, and nothing is mined to stdout.
func TestCountingStrategyFlag(t *testing.T) {
	for _, spelling := range []string{"vertical", "horizontal"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-sample", "-counting", spelling}, &stdout, &stderr)
		if !errors.Is(err, errUsage) {
			t.Fatalf("-counting %s: err %v, want a usage error", spelling, err)
		}
		if !strings.Contains(err.Error(), "-counting") {
			t.Errorf("error %q does not name the flag", err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-counting %s wrote to stdout: %q", spelling, stdout.String())
		}
	}
}

// TestParallelismFlag: every pool is GOMAXPROCS wide, so there is no
// -parallelism flag. A script that still passes it gets a usage error
// (main exits 2) naming the flag, and nothing is mined to stdout.
func TestParallelismFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-sample", "-parallelism", "8"},
		{"-sample", "-colocate", "-parallelism", "1"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if !errors.Is(err, errUsage) {
			t.Fatalf("%v: err %v, want a usage error", args, err)
		}
		if !strings.Contains(err.Error(), "-parallelism") {
			t.Errorf("error %q does not name the flag", err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote to stdout: %q", args, stdout.String())
		}
	}
}

// TestRunDocumentsIndependentOfGOMAXPROCS: GOMAXPROCS is the width of
// every pool a run starts (decoding, extraction, support counting, the
// Eclat walk, rule generation and both co-location phases), and no
// width changes a result. Each algorithm on a generated scene, the table
// path with rules and -colocate print the same -format json document at
// GOMAXPROCS 1 and 4, wall time aside.
func TestRunDocumentsIndependentOfGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, write func(io.Writer) error) string {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scene, err := datagen.GenerateScene(datagen.DefaultScene(6, 5, 31))
	if err != nil {
		t.Fatal(err)
	}
	points, err := datagen.GenerateColocationScene(datagen.DefaultColocationScene(7))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := datagen.PaperDataset1(7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	scenePath := save("scene.json", scene.WriteJSON)
	pointsPath := save("points.json", points.WriteJSON)
	tablePath := save("table.csv", tab.WriteTableCSV)
	var deps []string
	for _, p := range datagen.Dataset1Dependencies {
		deps = append(deps, p.A+":"+p.B)
	}

	cases := []struct {
		name string
		args []string
	}{
		{"scene/apriori", []string{"-data", scenePath, "-alg", "apriori", "-minsup", "0.25", "-rules", "-minconf", "0.6"}},
		{"scene/apriori-kc", []string{"-data", scenePath, "-alg", "apriori-kc", "-minsup", "0.25", "-rules", "-minconf", "0.6"}},
		{"scene/apriori-kc+", []string{"-data", scenePath, "-alg", "apriori-kc+", "-minsup", "0.25", "-rules", "-minconf", "0.6"}},
		{"scene/eclat-kc+", []string{"-data", scenePath, "-alg", "eclat-kc+", "-minsup", "0.25", "-rules", "-minconf", "0.6"}},
		{"table/eclat-kc+", []string{"-table", tablePath, "-alg", "eclat-kc+", "-minsup", "0.02", "-rules", "-minconf", "0.6", "-deps", strings.Join(deps, ",")}},
		{"colocate", []string{"-data", pointsPath, "-colocate", "-dist", "1", "-minpi", "0.3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string(nil), tc.args...), "-format", "json")
			var docs [2][]byte
			for i, procs := range []int{1, 4} {
				var stdout bytes.Buffer
				var err error
				withProcs(procs, func() { err = run(args, &stdout, io.Discard) })
				if err != nil {
					t.Fatalf("GOMAXPROCS %d: %v", procs, err)
				}
				docs[i] = stdout.Bytes()
			}
			seq, par := cliDoc(t, docs[0]), cliDoc(t, docs[1])
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("documents differ across GOMAXPROCS:\n--- procs=1\n%s\n--- procs=4\n%s", docs[0], docs[1])
			}
			frequent, _ := seq["frequent"].([]any)
			rules, _ := seq["rules"].([]any)
			prevalent, _ := seq["prevalent"].([]any)
			if len(frequent)+len(prevalent) == 0 || (len(frequent) > 0 && len(rules) == 0) {
				t.Errorf("the run mines too little to compare: %s", docs[0])
			}
		})
	}
}

// TestEclatRejectsHorizontalCountingConfig: a config that asks for
// horizontal counting is refused by name, not mined the one way
// supports are counted. The same config without the key mines.
func TestEclatRejectsHorizontalCountingConfig(t *testing.T) {
	var cfg qsrmine.Config
	err := json.Unmarshal([]byte(`{"algorithm":"eclat-kc+","minSupport":0.5,"counting":"horizontal"}`), &cfg)
	if err == nil {
		t.Fatal("a config carrying counting must fail to decode")
	}
	if !strings.Contains(err.Error(), `"counting"`) {
		t.Errorf("error %q does not name the key", err)
	}
	if err := json.Unmarshal([]byte(`{"algorithm":"eclat-kc+","minSupport":0.5}`), &cfg); err != nil {
		t.Fatal(err)
	}
	out, err := qsrmine.RunTable(qsrmine.Table2Reconstruction(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Result.Frequent) == 0 {
		t.Error("eclat-kc+ mined nothing")
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
		{"-sample", "-postfilter", "open"}, // unknown post filter (flag parse error)
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

// TestRunPostfilterFlag: -postfilter is the one flag that sets the post
// filter. On the sample at 50 % it keeps 14 closed or 10 maximal of the
// 24 frequent itemsets the JSON lists (two or more items). -closed and
// -maximal are usage errors, so no second flag can override it.
func TestRunPostfilterFlag(t *testing.T) {
	for filter, want := range map[string]int{"none": 24, "closed": 14, "maximal": 10} {
		var stdout, stderr bytes.Buffer
		args := []string{"-sample", "-minsup", "0.5", "-postfilter", filter, "-format", "json"}
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Frequent []json.RawMessage `json:"frequent"`
		}
		if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Frequent) != want {
			t.Errorf("-postfilter %s: %d itemsets, want %d", filter, len(doc.Frequent), want)
		}
	}
	for _, flag := range []string{"-closed", "-maximal"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-sample", "-postfilter", "maximal", flag}, &stdout, &stderr)
		if !errors.Is(err, errUsage) {
			t.Errorf("%s: err %v, want a usage error", flag, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s wrote to stdout: %q", flag, stdout.String())
		}
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

	// -profile reads the mutated table, which mining the state does not
	// render, so it must be the from-scratch table's profile.
	profile := func(args ...string) string {
		var out bytes.Buffer
		if err := run(append(args, "-minsup", "0.3", "-profile"), &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		section, _, _ := strings.Cut(out.String(), "\n\n")
		return section
	}
	if got, want := profile("-sample", "-mutate", path), profile("-data", f); !strings.Contains(got, "-- table profile --") || got != want {
		t.Errorf("mutated -profile diverged from the from-scratch one:\n%s\nvs\n%s", got, want)
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
