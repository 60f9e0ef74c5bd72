package qsrmine_test

import (
	"testing"

	qsrmine "repro"
	"repro/internal/core"
	"repro/internal/geom"
)

// TestPublicAPIQuickstart exercises the documented quick-start path.
func TestPublicAPIQuickstart(t *testing.T) {
	scene := qsrmine.PortoAlegreScene()
	out, err := qsrmine.Run(scene, qsrmine.Config{
		Algorithm:  qsrmine.AprioriKCPlus,
		MinSupport: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.NumFrequent(2) == 0 {
		t.Fatal("no frequent itemsets")
	}
	for _, f := range out.Result.Frequent {
		if f.Items.HasSameFeaturePair(out.DB.Dict) {
			t.Errorf("same-feature itemset in KC+ output: %s", f.Items.Format(out.DB.Dict))
		}
	}
}

func TestPublicGeometryAPI(t *testing.T) {
	district := qsrmine.Rect(0, 0, 10, 10)
	slum := qsrmine.Rect(2, 2, 4, 4)
	rel, ok := qsrmine.Topological(district, slum)
	if !ok || rel != qsrmine.Contains {
		t.Errorf("Topological = %v, %v", rel, ok)
	}
	if m := qsrmine.Relate(district, slum); m.String() != "212FF1FF2" {
		t.Errorf("Relate = %s, want 212FF1FF2", m)
	}
	g, err := qsrmine.ParseWKT("POINT (1 2)")
	if err != nil {
		t.Fatal(err)
	}
	if geom.Distance(g, qsrmine.Pt(1, 2)) != 0 {
		t.Error("distance to self")
	}
	p := qsrmine.Predicate{Relation: qsrmine.Touches, FeatureType: "school"}
	if p.String() != "touches_school" {
		t.Errorf("predicate = %q", p.String())
	}
}

func TestPublicGainAPI(t *testing.T) {
	g, err := qsrmine.MinGain([]int{2, 2, 2}, 2)
	if err != nil || g != 148 {
		t.Errorf("MinGain = %d, %v", g, err)
	}
	lb, err := qsrmine.TotalLowerBound(6)
	if err != nil || lb != 57 {
		t.Errorf("TotalLowerBound = %d, %v", lb, err)
	}
	if len(qsrmine.GainTable3()) != 10 {
		t.Error("GainTable3 shape wrong")
	}
}

func TestPublicTableAPI(t *testing.T) {
	table := qsrmine.NewTable([]qsrmine.Transaction{
		{RefID: "a", Items: []string{"contains_slum", "touches_slum", "crimeRate=high"}},
		{RefID: "b", Items: []string{"contains_slum", "crimeRate=high"}},
	})
	out, err := qsrmine.RunTable(table, qsrmine.Config{
		Algorithm:     qsrmine.AprioriKCPlus,
		MinSupport:    0.5,
		GenerateRules: true,
		MinConfidence: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rules) == 0 {
		t.Error("expected rules")
	}
	alg, err := core.ParseAlgorithm("apriori-kc+")
	if err != nil || alg != qsrmine.AprioriKCPlus {
		t.Errorf("ParseAlgorithm = %v, %v", alg, err)
	}
}
