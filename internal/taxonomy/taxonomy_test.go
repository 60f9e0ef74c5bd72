package taxonomy

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/mining"
)

// cityHierarchy: slum, favela -> settlement -> landuse; school ->
// publicService -> landuse; river is a root.
func cityHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h := NewHierarchy()
	for _, edge := range [][2]string{
		{"slum", "settlement"},
		{"favela", "settlement"},
		{"settlement", "landuse"},
		{"school", "publicService"},
		{"publicService", "landuse"},
	} {
		if err := h.Add(edge[0], edge[1]); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestHierarchyStructure(t *testing.T) {
	h := cityHierarchy(t)
	anc := h.Ancestors("slum")
	if len(anc) != 2 || anc[0] != "settlement" || anc[1] != "landuse" {
		t.Errorf("Ancestors(slum) = %v", anc)
	}
	if anc := h.Ancestors("landuse"); len(anc) != 0 {
		t.Errorf("root must have no ancestors, got %v", anc)
	}
}

func TestHierarchyAtLevel(t *testing.T) {
	h := cityHierarchy(t)
	cases := []struct {
		typ   string
		level int
		want  string
	}{
		{"slum", 0, "landuse"},
		{"slum", 1, "settlement"},
		{"slum", 2, "slum"},
		{"slum", 9, "slum"}, // deeper than the chain: unchanged
		{"landuse", 0, "landuse"},
		{"river", 0, "river"}, // outside the hierarchy: unchanged
		{"school", 1, "publicService"},
	}
	for _, tc := range cases {
		if got := h.AtLevel(tc.typ, tc.level); got != tc.want {
			t.Errorf("AtLevel(%q, %d) = %q, want %q", tc.typ, tc.level, got, tc.want)
		}
	}
}

func TestHierarchyAddErrors(t *testing.T) {
	h := NewHierarchy()
	if err := h.Add("a", "a"); err == nil {
		t.Error("self-parent must fail")
	}
	if err := h.Add("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("a", "c"); err == nil {
		t.Error("second parent must fail")
	}
	if err := h.Add("a", "b"); err != nil {
		t.Error("re-adding the same edge is fine")
	}
	if err := h.Add("b", "a"); err == nil {
		t.Error("cycle must fail")
	}
	if err := h.Add("b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("c", "a"); err == nil {
		t.Error("cycle a -> b -> c -> a must fail")
	}
}

func TestGeneralizeTable(t *testing.T) {
	h := cityHierarchy(t)
	table := dataset.NewTable([]dataset.Transaction{
		{RefID: "d1", Items: []string{
			"contains_slum", "touches_favela", "contains_school",
			"crosses_river", "murderRate=high",
		}},
	})
	gen := GeneralizeTable(table, h, 1)
	items := gen.Transactions[0].Items
	want := map[string]bool{
		"contains_settlement":    true,
		"touches_settlement":     true,
		"contains_publicService": true,
		"crosses_river":          true, // root outside hierarchy levels
		"murderRate=high":        true, // non-spatial untouched
	}
	if len(items) != len(want) {
		t.Fatalf("generalised items = %v", items)
	}
	for _, it := range items {
		if !want[it] {
			t.Errorf("unexpected item %q", it)
		}
	}
}

func TestGeneralizeMergesSiblings(t *testing.T) {
	// Two sibling predicates with the same relation collapse into one
	// item, raising its support at the general level.
	h := cityHierarchy(t)
	table := dataset.NewTable([]dataset.Transaction{
		{RefID: "d1", Items: []string{"contains_slum", "contains_favela"}},
		{RefID: "d2", Items: []string{"contains_slum"}},
		{RefID: "d3", Items: []string{"contains_favela"}},
	})
	gen := GeneralizeTable(table, h, 1)
	if got := gen.SupportCount([]string{"contains_settlement"}); got != 3 {
		t.Errorf("generalised support = %d, want 3", got)
	}
	if len(gen.Transactions[0].Items) != 1 {
		t.Errorf("sibling predicates did not merge: %v", gen.Transactions[0].Items)
	}
}

// TestMultiLevelMiningWithKCPlus is the integration story: mine at the
// general level where sibling types merge, and KC+ still filters the
// same-feature pairs that emerge from generalisation.
func TestMultiLevelMiningWithKCPlus(t *testing.T) {
	h := cityHierarchy(t)
	table := dataset.NewTable([]dataset.Transaction{
		{RefID: "1", Items: []string{"contains_slum", "touches_favela", "murderRate=high"}},
		{RefID: "2", Items: []string{"contains_slum", "touches_favela", "murderRate=high"}},
		{RefID: "3", Items: []string{"contains_favela", "touches_slum", "murderRate=high"}},
		{RefID: "4", Items: []string{"contains_slum", "murderRate=low"}},
	})
	gen := GeneralizeTable(table, h, 1)
	db := itemset.NewDB(gen)
	res, err := mining.AprioriKCPlus(db, mining.Config{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// At the settlement level, {contains_settlement, touches_settlement}
	// is frequent in the raw data (3 of 4 rows) but must be filtered.
	if res.PrunedSameFeature == 0 {
		t.Error("generalised same-feature pair not pruned")
	}
	for _, f := range res.Frequent {
		if f.Items.HasSameFeaturePair(db.Dict) {
			t.Errorf("same-feature itemset leaked: %s", f.Items.Format(db.Dict))
		}
	}
	// The cross-feature association survives.
	cs, ok1 := db.Dict.Lookup("contains_settlement")
	mh, ok2 := db.Dict.Lookup("murderRate=high")
	if !ok1 || !ok2 {
		t.Fatal("generalised items missing")
	}
	if _, ok := res.Support(itemset.NewItemset(cs, mh)); !ok {
		t.Error("cross-feature generalised set lost")
	}
}
