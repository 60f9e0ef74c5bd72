package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
)

func TestAllExperimentsRun(t *testing.T) {
	ids := IDs()
	if len(ids) != 11 {
		t.Fatalf("experiments = %d, want 11", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		r, _ := ByID(id)
		if r.ID == "" || r.Title == "" {
			t.Errorf("report missing metadata: %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate report ID %q", r.ID)
		}
		seen[r.ID] = true
		if len(r.Lines) == 0 {
			t.Errorf("%s: no output lines", r.ID)
		}
		for _, n := range r.Notes {
			if strings.HasPrefix(n, "ERROR") {
				t.Errorf("%s: %s", r.ID, n)
			}
		}
		if !strings.Contains(r.Format(), r.Title) {
			t.Errorf("%s: Format misses title", r.ID)
		}
	}
}

func TestByIDCoversAll(t *testing.T) {
	for _, id := range IDs() {
		r, ok := ByID(id)
		if !ok {
			t.Errorf("ByID(%q) unknown", id)
			continue
		}
		if r.ID != id {
			t.Errorf("ByID(%q) returned %q", id, r.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID should not resolve")
	}
	// Case-insensitive lookup.
	if _, ok := ByID("TABLE2"); !ok {
		t.Error("lookup should be case-insensitive")
	}
}

func TestTable3NoMismatches(t *testing.T) {
	r := Table3()
	last := r.Lines[len(r.Lines)-1]
	if !strings.Contains(last, "mismatches vs paper: 0 / 70") {
		t.Errorf("Table 3 mismatch line = %q", last)
	}
}

func TestTable2ReportNumbers(t *testing.T) {
	r := Table2()
	joined := strings.Join(r.Lines, "\n")
	for _, want := range []string{" 60 ", " 60", "size 6: 1"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Table 2 report missing %q:\n%s", want, joined)
		}
	}
}

func TestGainChecksLowerBoundHolds(t *testing.T) {
	r := GainChecks42()
	for _, l := range r.Lines[1:] {
		if strings.Contains(l, "NO") {
			t.Errorf("gain lower bound violated: %s", l)
		}
	}
}

func TestFigure4ReductionsReported(t *testing.T) {
	r := Figure4()
	// Header + three minsup rows, then a blank line and the bar chart
	// (three minsup groups x three algorithms).
	if len(r.Lines) != 14 {
		t.Fatalf("figure4 lines = %d, want 14", len(r.Lines))
	}
	for _, l := range r.Lines[1:4] {
		if !strings.Contains(l, "%") {
			t.Errorf("row without reductions: %q", l)
		}
	}
	chart := strings.Join(r.Lines[5:], "\n")
	if !strings.Contains(chart, "#") {
		t.Error("figure 4 chart missing bars")
	}
	if !strings.Contains(chart, "apriori") || !strings.Contains(chart, "kc+") {
		t.Error("figure 4 chart missing series names")
	}
}

// reportRows returns the report's lines after its header with runs of
// white space collapsed to one space, blank lines dropped.
func reportRows(r *Report) []string {
	var rows []string
	for _, l := range r.Lines[1:] {
		if f := strings.Fields(l); len(f) > 0 {
			rows = append(rows, strings.Join(f, " "))
		}
	}
	return rows
}

// TestQuotedNumbersPinned pins every count EXPERIMENTS.md quotes, and
// the reductions it quotes, to the rows the experiments print: the
// Figure 4 and 6 counts and reductions, the §4.2 predictions and real
// gains, and the redundancy ablation's itemsets and rules. A moved
// number means a mining or generator change moved the reproduction.
func TestQuotedNumbersPinned(t *testing.T) {
	for _, c := range []struct {
		report func() *Report
		want   []string
	}{
		{Figure4, []string{
			"5% 1735 1088 399 37.3% 77.0%",
			"10% 1011 633 212 37.4% 79.0%",
			"15% 567 355 167 37.4% 70.5%",
		}},
		{Figure6, []string{
			"5% 623 179 71.3%",
			"8% 268 109 59.3%",
			"11% 246 100 59.3%",
			"14% 135 59 56.3%",
			"17% 126 50 60.3%",
		}},
		{GainChecks42, []string{
			"5% 8 3 [2 2 2]/2 148 444 yes",
			"17% 7 3 [2 2 2]/1 74 76 yes",
		}},
		{Redundancy, []string{
			"none (Apriori) 1011 697",
			"closed [4] 465 288",
			"maximal [9] 33 23",
			"KC+ (this paper) 314 0",
			"KC+ then closed 177 0",
			"KC+ then maximal 22 0",
			"rules (Apriori, conf>=0.7) 17418",
			"non-redundant rules [19] 5763",
			"rules after KC+ 1933",
			"...still same-feature 4873",
		}},
	} {
		r := c.report()
		got := reportRows(r)
		if len(got) < len(c.want) || !slices.Equal(got[:len(c.want)], c.want) {
			t.Errorf("%s rows moved:\n got %q\nwant %q", r.ID, got[:min(len(got), len(c.want))], c.want)
		}
	}
}

// TestExperimentsDocumentQuotesPinnedNumbers requires EXPERIMENTS.md to
// quote the numbers TestQuotedNumbersPinned pins, so the document cannot
// drift from the reproduction silently.
func TestExperimentsDocumentQuotesPinnedNumbers(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, quote := range []string{
		"KC −37.3/37.4/37.4%, KC+ −77.0/79.0/70.5%",
		"71.3/59.3/59.3/56.3/60.3% at 5/8/11/14/17%",
		"predicted 148 ≤ real 444",
		"predicted 74 ≤ real 76",
		"1011 itemsets of which\n697 contain a same-feature pair",
		"closed filtering keeps 465 (288 still\nsame-feature)",
		"keeps 33 (23 still\nsame-feature)",
		"Apriori-KC+ keeps 314 with **zero** same-feature patterns",
		"(KC+ then maximal: 22)",
		"keeps 5763 of 17418 rules\n— 4873 of them still same-feature",
	} {
		if !strings.Contains(string(doc), quote) {
			t.Errorf("EXPERIMENTS.md does not quote %q", quote)
		}
	}
}
