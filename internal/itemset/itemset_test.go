package itemset

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/qsr"
)

func TestDictionaryIntern(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("contains_slum")
	b := d.Intern("murderRate=high")
	if a2 := d.Intern("contains_slum"); a2 != a {
		t.Error("re-intern must return the same ID")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	ma := d.Meta(a)
	if ma.Kind != KindSpatial || ma.FeatureType != "slum" || ma.Relation != qsr.Contains {
		t.Errorf("spatial meta = %+v", ma)
	}
	mb := d.Meta(b)
	if mb.Kind != KindNonSpatial || mb.FeatureType != "" {
		t.Errorf("non-spatial meta = %+v", mb)
	}
	if d.Name(a) != "contains_slum" {
		t.Errorf("Name = %q", d.Name(a))
	}
	if _, ok := d.Lookup("contains_slum"); !ok {
		t.Error("Lookup known item failed")
	}
	if _, ok := d.Lookup("nope"); ok {
		t.Error("Lookup unknown item succeeded")
	}
	// An item that looks predicate-ish but has an unknown relation is
	// non-spatial.
	c := d.Intern("is_a_District")
	if d.Meta(c).Kind != KindNonSpatial {
		t.Error("unknown relation should not be spatial")
	}
}

func TestDictionaryLookupAll(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("a")
	b := d.Intern("b")
	n := d.Len()
	if s, ok := d.LookupAll([]string{"b", "a"}); !ok || !s.Equal(Itemset{a, b}) {
		t.Errorf("LookupAll(b, a) = %v, %v; want sorted {%d %d}, true", s, ok, a, b)
	}
	// A name the dictionary lacks is left out, reported, and not interned.
	if s, ok := d.LookupAll([]string{"b", "gone"}); ok || !s.Equal(Itemset{b}) {
		t.Errorf("LookupAll(b, gone) = %v, %v; want {%d}, false", s, ok, b)
	}
	if s, ok := d.LookupAll(nil); !ok || len(s) != 0 {
		t.Errorf("LookupAll(nil) = %v, %v; want empty, true", s, ok)
	}
	if d.Len() != n {
		t.Errorf("LookupAll interned: Len = %d, want %d", d.Len(), n)
	}
}

func TestDictionarySameFeatureType(t *testing.T) {
	d := NewDictionary()
	cs := d.Intern("contains_slum")
	ts := d.Intern("touches_slum")
	csch := d.Intern("contains_school")
	attr := d.Intern("murderRate=high")
	if !d.SameFeatureType(cs, ts) {
		t.Error("contains_slum/touches_slum must share feature type")
	}
	if d.SameFeatureType(cs, csch) {
		t.Error("slum/school must not share feature type")
	}
	if d.SameFeatureType(cs, attr) || d.SameFeatureType(attr, attr) {
		t.Error("non-spatial items never share a feature type")
	}
}

func TestNewItemsetNormalises(t *testing.T) {
	s := NewItemset(3, 1, 2, 1, 3)
	if !s.Equal(Itemset{1, 2, 3}) {
		t.Errorf("NewItemset = %v", s)
	}
	if len(NewItemset()) != 0 {
		t.Error("empty construction")
	}
}

func TestItemsetOps(t *testing.T) {
	s := Itemset{1, 3, 5}
	if !s.ContainsAll(Itemset{1, 5}) || !s.ContainsAll(nil) {
		t.Error("ContainsAll positives failed")
	}
	if s.ContainsAll(Itemset{1, 2}) || s.ContainsAll(Itemset{1, 3, 5, 7}) {
		t.Error("ContainsAll negatives failed")
	}
	if !s.Contains(3) || s.Contains(4) {
		t.Error("Contains wrong")
	}
	if got := s.Without(1); !got.Equal(Itemset{1, 5}) {
		t.Errorf("Without = %v", got)
	}
	if got := s.Union(Itemset{2, 3, 9}); !got.Equal(Itemset{1, 2, 3, 5, 9}) {
		t.Errorf("Union = %v", got)
	}
}

func TestItemsetKeyUnique(t *testing.T) {
	f := func(a, b []int32) bool {
		sa, sb := NewItemset(a...), NewItemset(b...)
		return (sa.Key() == sb.Key()) == sa.Equal(sb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestItemsetFormat(t *testing.T) {
	d := NewDictionary()
	s := FromNames(d, "contains_slum", "murderRate=high")
	got := s.Format(d)
	if got != "{contains_slum, murderRate=high}" && got != "{murderRate=high, contains_slum}" {
		t.Errorf("Format = %q", got)
	}
	names := s.Names(d)
	if len(names) != 2 {
		t.Errorf("Names = %v", names)
	}
}

func TestHasSameFeaturePair(t *testing.T) {
	d := NewDictionary()
	withPair := FromNames(d, "contains_slum", "touches_slum", "murderRate=high")
	if !withPair.HasSameFeaturePair(d) {
		t.Error("slum pair not detected")
	}
	without := FromNames(d, "contains_slum", "touches_school", "murderRate=high")
	if without.HasSameFeaturePair(d) {
		t.Error("false positive on distinct feature types")
	}
	attrsOnly := FromNames(d, "murderRate=high", "theftRate=low")
	if attrsOnly.HasSameFeaturePair(d) {
		t.Error("non-spatial items can never form a same-feature pair")
	}
}

func testTable() *dataset.Table {
	return dataset.NewTable([]dataset.Transaction{
		{RefID: "r1", Items: []string{"a", "b", "c"}},
		{RefID: "r2", Items: []string{"a", "b"}},
		{RefID: "r3", Items: []string{"a", "c"}},
		{RefID: "r4", Items: []string{"b"}},
	})
}

func TestDBCounting(t *testing.T) {
	db := NewDB(testTable())
	if db.NumTransactions() != 4 {
		t.Fatalf("NumTransactions = %d", db.NumTransactions())
	}
	a, _ := db.Dict.Lookup("a")
	b, _ := db.Dict.Lookup("b")
	c, _ := db.Dict.Lookup("c")

	counts := db.ItemCounts()
	if counts[a] != 3 || counts[b] != 3 || counts[c] != 2 {
		t.Errorf("ItemCounts = %v", counts)
	}
	ab := NewItemset(a, b)
	if got := db.SupportHorizontal(ab); got != 2 {
		t.Errorf("horizontal support(ab) = %d", got)
	}
	vc := db.NewVerticalCounter()
	if got := vc.Support(ab); got != 2 {
		t.Errorf("vertical support(ab) = %d", got)
	}
	if got := vc.Support(NewItemset(a, b, c)); got != 1 {
		t.Errorf("vertical support(abc) = %d", got)
	}
	if got := vc.Support(Itemset{}); got != 4 {
		t.Errorf("vertical support(empty) = %d", got)
	}
	// Tidset for item a has rows 0, 1, 2 set.
	ts := db.Tidset(a)
	if ts[0] != 0b0111 {
		t.Errorf("tidset(a) = %b", ts[0])
	}
	if got := db.String(); got != "itemset.DB{4 rows, 3 items}" {
		t.Errorf("String = %q", got)
	}
}

func TestSupportStrategiesAgree(t *testing.T) {
	// Property: horizontal and vertical counting agree on random subsets.
	db := NewDB(dataset.PortoAlegreTable())
	vc := db.NewVerticalCounter()
	n := int32(db.Dict.Len())
	f := func(raw []int32) bool {
		ids := make([]int32, 0, len(raw))
		for _, v := range raw {
			id := v % n
			if id < 0 {
				id += n
			}
			ids = append(ids, id)
		}
		s := NewItemset(ids...)
		return db.SupportHorizontal(s) == vc.Support(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVerticalAutoBuildsTidsets(t *testing.T) {
	// NewVerticalCounter (and Tidset) build the vertical representation
	// on first use instead of panicking.
	db := NewDB(testTable())
	s := NewItemset(0)
	if got, want := db.NewVerticalCounter().Support(s), db.SupportHorizontal(s); got != want {
		t.Errorf("VerticalCounter.Support without BuildTidsets = %d, want %d", got, want)
	}
	db2 := NewDB(testTable())
	if got := bitset(db2.Tidset(0)).count(); got != db2.SupportHorizontal(s) {
		t.Errorf("Tidset without BuildTidsets popcount = %d, want %d", got, db2.SupportHorizontal(s))
	}
}

func TestConcurrentCountersOnFreshDB(t *testing.T) {
	// The lazy tidset build is synchronised: goroutines racing to
	// construct VerticalCounters (or grab Tidsets) on a fresh DB all see
	// the one completed build. Run under -race in CI, this is the
	// regression test for the unguarded db.tidsets publication.
	db := NewDB(dataset.PortoAlegreTable())
	s := NewItemset(0, 1)
	want := db.SupportHorizontal(s)
	const goroutines = 8
	got := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vc := db.NewVerticalCounter()
			got[g] = vc.Support(s)
		}(g)
	}
	wg.Wait()
	for g, sup := range got {
		if sup != want {
			t.Errorf("goroutine %d: support = %d, want %d", g, sup, want)
		}
	}
	// Racing Tidset readers on another fresh DB agree too.
	db2 := NewDB(dataset.PortoAlegreTable())
	counts := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			counts[g] = bitset(db2.Tidset(0)).count()
		}(g)
	}
	wg.Wait()
	want0 := db2.SupportHorizontal(NewItemset(0))
	for g, c := range counts {
		if c != want0 {
			t.Errorf("goroutine %d: tidset popcount = %d, want %d", g, c, want0)
		}
	}
}

func TestVerticalCounterMatchesHorizontal(t *testing.T) {
	// Property: the prefix-cached counter agrees with horizontal scans on
	// random candidate streams, sorted (the cached case) or not.
	db := NewDB(dataset.PortoAlegreTable())
	vc := db.NewVerticalCounter()
	n := int32(db.Dict.Len())
	f := func(raw []int32) bool {
		ids := make([]int32, 0, len(raw))
		for _, v := range raw {
			id := v % n
			if id < 0 {
				id += n
			}
			ids = append(ids, id)
		}
		s := NewItemset(ids...)
		return vc.Support(s) == db.SupportHorizontal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVerticalCounterSortedStream(t *testing.T) {
	// Consecutive shared-prefix candidates (the aprioriGen output shape)
	// exercise the layer cache explicitly.
	db := NewDB(dataset.PortoAlegreTable())
	vc := db.NewVerticalCounter()
	n := int32(db.Dict.Len())
	var stream []Itemset
	for a := int32(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				stream = append(stream, Itemset{a, b, c})
			}
		}
	}
	for _, s := range stream {
		if got, want := vc.Support(s), db.SupportHorizontal(s); got != want {
			t.Fatalf("Support(%v) = %d, want %d", s, got, want)
		}
	}
}

func TestBitset(t *testing.T) {
	b := make(bitset, 2)
	b.set(0)
	b.set(63)
	b.set(64)
	bit := func(i int) uint64 { return b[i/64] >> (i % 64) & 1 }
	if bit(0) != 1 || bit(63) != 1 || bit(64) != 1 || bit(1) != 0 {
		t.Errorf("set wrote %#x", []uint64(b))
	}
	if b.count() != 3 {
		t.Errorf("count = %d", b.count())
	}
}
