package transact

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/qsr"
)

// rowOptionsUnderTest extends stateOptionsUnderTest with the option sets
// whose items are not all known before extraction: instance granularity
// (one predicate per relevant feature), attributes-only extraction and
// is_a alone.
func rowOptionsUnderTest() map[string]Options {
	all := stateOptionsUnderTest()
	all["instance"] = Options{
		Topological: true, Distance: true, Thresholds: qsr.DefaultThresholds(10),
		Directional: true, IncludeIsA: true, Granularity: InstanceLevel, Index: RTreeIndex,
	}
	all["attributesOnly"] = Options{Index: NoIndex}
	all["isAOnly"] = Options{IncludeIsA: true}
	return all
}

// zonedScene is sceneForState with a string attribute, zone, beside the
// numeric crimeRate, so that edits can add attribute items.
func zonedScene(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	d := sceneForState(t, seed)
	for i := range d.Reference.Features {
		d.Reference.Features[i].Attrs["zone"] = fmt.Sprintf("z%d", i%3)
	}
	d.NonSpatialAttrs = append(d.NonSpatialAttrs, "zone")
	return d
}

// zonedSceneOps is randomSceneOps plus one edit of a reference feature's
// attributes that the batch does not otherwise name: a fresh zone value
// (a new attribute item) and a numeric crimeRate that refits the cuts.
func zonedSceneOps(rng *rand.Rand, d *dataset.Dataset, tag string) []dataset.Op {
	ops := randomSceneOps(rng, d, 1+rng.Intn(3), tag)
	named := map[string]bool{}
	for _, op := range ops {
		if op.Layer == d.Reference.Type {
			named[op.ID] = true
		}
	}
	for _, k := range rng.Perm(d.Reference.Len()) {
		if id := d.Reference.Features[k].ID; !named[id] {
			return append(ops, dataset.Op{
				Action: dataset.OpUpdate, Layer: d.Reference.Type, ID: id,
				Attrs: map[string]dataset.Value{"crimeRate": rng.Float64() * 100, "zone": "zone_" + tag},
			})
		}
	}
	return ops
}

// applyChain runs steps mutation batches from zonedSceneOps through a
// State of opts on a zoned scene, calling check with the state after
// NewState (step 0) and after every Apply, and requires every table to
// equal a cold extraction of the same dataset.
func applyChain(t *testing.T, opts Options, steps int, check func(step int, st *State)) {
	t.Helper()
	rng := rand.New(rand.NewSource(53))
	d := zonedScene(t, 13)
	st, err := NewState(d, opts)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	check(0, st)
	for step := 1; step <= steps; step++ {
		nd, cs, err := d.ApplyOps(zonedSceneOps(rng, d, fmt.Sprint(step)))
		if err != nil {
			t.Fatalf("step %d: ApplyOps: %v", step, err)
		}
		if _, err := st.Apply(context.Background(), nd, cs); err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		want, err := Extract(nd, opts)
		if err != nil {
			t.Fatalf("step %d: Extract: %v", step, err)
		}
		assertTablesEqual(t, st.Table(), want, fmt.Sprintf("step %d", step))
		check(step, st)
		d = nd
	}
}

// TestStateTableGoldenDigestsUnderEdits pins State.Table after NewState
// and after each of four edit batches that add instance predicates and
// attribute items and refit the numeric cuts, for the option sets whose
// items are not all known up front. The digests were recorded while rows
// still held item strings, before they became vocabulary indices.
func TestStateTableGoldenDigestsUnderEdits(t *testing.T) {
	golden := map[string][5]string{
		"instance": {
			"a7fda0f6c981780e62585fc81dc016c229e99b2a0785cec32a16b9df81270bc5",
			"7ec2fb02b490d12bcad3406d6911d40cdde01d457f04afcd0183d2be5c375807",
			"c150d1e40c98d0eedc7abe88f803dbdcf05c8891575decf1c7bda412739b6de8",
			"828d3e1de1796b97646623e4d50e1d0c3f9b90d530f866fbee85ae37a5ceb3cd",
			"1ec56748bc399ee2045fc6f3c0583f20a6b16d772ff54c170ddca2956cb565b4",
		},
		"attributesOnly": {
			"20bcaf37641004e9767cc14b8a56ad1645bc2557aca205e6e448cd5f8dca7aa0",
			"829e401a52cf453dfbb5da6b9a91cec7fce0200eaedb4909b8dde3626b7ac242",
			"0e141af10ec5fb952c8c850edede09dda249f19cd9a646851fc67e9ad3d7b2ca",
			"4a719155e3e752a5cda3dd48a576c9f44ea96d0d6440d4839515da5e1b2ddd57",
			"90320704c6049a0719cefe11cf637beab5d69be3384c4046cdb47b2b123c0d0b",
		},
		"isAOnly": {
			"87baf5bfa0a68efd416a68590c914ac180af8f1cb0cfc470036aabb6631dee95",
			"ced7bdf73e829c404dcc9ccc606ac749f0c43a1e818072c08d339fc835c9093a",
			"f9fc1a74664f361e996e2ed7d06d1ce979954216c0e6b3b191e5f8a674fea4c9",
			"83c19230abf828311b99af11feab3a33f99ee0641ca3bd102c1ea9ab0916d20c",
			"270c931fab85c1b1a48309d975a63d8dadb026575a5025ff5647e9226c973bdd",
		},
		"combined": {
			"adfec35e6f5be863a1dadfef06435b44a63f0d43448b9d06889d18ceafeab26c",
			"7a259209a7486c3a2622ef0dac04cdc632f28517d09d667c42688a582b2eda6f",
			"d2bf1ebf2fba162cad632f4f9ef44206d087b40d69f84937e0242790637c5c9f",
			"40bb55ff11ee11bc9d53c6c1a470fd565fddea7ec7ce9471b73df21f79de0d7d",
			"eb1f55d47d0ac469528318a1e40efc86b8dfd523773041e6618c51f66923e9d6",
		},
	}
	for _, name := range []string{"instance", "attributesOnly", "isAOnly", "combined"} {
		opts := rowOptionsUnderTest()[name]
		for _, par := range []int{1, 4} {
			opts.Parallelism = par
			t.Run(fmt.Sprintf("%s/par=%d", name, par), func(t *testing.T) {
				var got [5]string
				applyChain(t, opts, 4, func(step int, st *State) { got[step] = tableDigest(st.Table()) })
				if got != golden[name] {
					t.Errorf("table digests moved:\n got %q\nwant %q", got, golden[name])
				}
			})
		}
	}
}

// assertDBsEqual requires got to equal want: the same dictionary (names,
// metas and IDs, in order) and the same rows, each a capacity-capped
// window.
func assertDBsEqual(t *testing.T, got, want *itemset.DB, label string) {
	t.Helper()
	if got.Dict.Len() != want.Dict.Len() {
		t.Fatalf("%s: %d items, want %d", label, got.Dict.Len(), want.Dict.Len())
	}
	for id := int32(0); id < int32(want.Dict.Len()); id++ {
		if g, w := got.Dict.Meta(id), want.Dict.Meta(id); g != w {
			t.Fatalf("%s: item %d = %+v, want %+v", label, id, g, w)
		}
		if g, ok := got.Dict.Lookup(want.Dict.Name(id)); !ok || g != id {
			t.Fatalf("%s: Lookup(%q) = %d, %v, want %d", label, want.Dict.Name(id), g, ok, id)
		}
	}
	if len(got.Rows) != len(want.Rows) || (got.Rows == nil) != (want.Rows == nil) {
		t.Fatalf("%s: %d rows (nil %v), want %d (nil %v)", label, len(got.Rows), got.Rows == nil, len(want.Rows), want.Rows == nil)
	}
	for j := range want.Rows {
		if !got.Rows[j].Equal(want.Rows[j]) {
			t.Fatalf("%s: row %d = %v, want %v", label, j, got.Rows[j], want.Rows[j])
		}
		if cap(got.Rows[j]) != len(got.Rows[j]) {
			t.Fatalf("%s: row %d has capacity %d beyond its %d items", label, j, cap(got.Rows[j]), len(got.Rows[j]))
		}
	}
}

// TestStateRowsMatchNewDB is the differential test of the integer item
// path: the database built from a State's indexed rows must be exactly
// NewDB of the State's rendered table, after NewState and after every
// Apply of an edit chain that adds instance predicates and attribute
// items and refits the cuts, for every option set at Parallelism 1
// and 4.
func TestStateRowsMatchNewDB(t *testing.T) {
	for name, opts := range rowOptionsUnderTest() {
		for _, par := range []int{1, 4} {
			opts.Parallelism = par
			t.Run(fmt.Sprintf("%s/par=%d", name, par), func(t *testing.T) {
				applyChain(t, opts, 6, func(step int, st *State) {
					names, rows := st.Rows()
					table := st.Table()
					for j, row := range rows {
						got := make([]string, len(row))
						for k, i := range row {
							got[k] = names[i]
						}
						if fmt.Sprint(got) != fmt.Sprint(table.Transactions[j].Items) {
							t.Fatalf("step %d: Rows()[%d] names %v, Table row %v", step, j, got, table.Transactions[j].Items)
						}
					}
					assertDBsEqual(t, itemset.NewDBIndexed(names, rows), itemset.NewDB(table), fmt.Sprintf("step %d", step))
				})
			})
		}
	}
}

// TestStateApplyWithNoDirtyRow applies a batch that re-renders no row —
// a relevant feature inserted far from every district under
// topological predicates — and requires the carried-over rows, and so
// the table and the database, to be exactly as before.
func TestStateApplyWithNoDirtyRow(t *testing.T) {
	d := zonedScene(t, 13)
	opts := rowOptionsUnderTest()["topological"]
	st, err := NewState(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := tableDigest(st.Table())
	nd, cs, err := d.ApplyOps([]dataset.Op{{Action: dataset.OpInsert, Layer: d.Relevant[0].Type, ID: "far", WKT: rectWKT(1000, 1000, 1001, 1001)}})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := st.Apply(context.Background(), nd, cs)
	if err != nil {
		t.Fatal(err)
	}
	if delta.RowsDirty != 0 || !delta.Identity() {
		t.Fatalf("the far insert dirtied %d rows and changed %d", delta.RowsDirty, len(delta.Changed))
	}
	if got := tableDigest(st.Table()); got != before {
		t.Fatalf("table moved after an Apply that re-rendered no row:\n got %s\nwant %s", got, before)
	}
	names, rows := st.Rows()
	assertDBsEqual(t, itemset.NewDBIndexed(names, rows), itemset.NewDB(st.Table()), "after the far insert")
}

// TestVocabNormalise holds normalise to sorting names: on random rows
// over vocabularies of 5, 70 and 3,000 names, half of them interned
// before the rows and half met by the rows as pending codes, as a row
// pass leaves them, and interned after in two sorted runs, every row
// comes out as its distinct names in byte order. Several codes stand
// for each pending name, within a run and across the two, and one of
// the pending names is also interned directly by the rows. It then
// checks interning and the rank invariant: after more names, new and
// old, are interned in small batches, every name is held once, byRank
// is their byte order, rank its inverse, and every row normalised
// earlier is still in rank order.
func TestVocabNormalise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	name := func(k int) string { return fmt.Sprintf("item%d", k) }
	for _, size := range []int{5, 70, 3000} {
		v := new(vocab)
		perm := rng.Perm(size)
		for _, k := range perm[:size/2] {
			v.internAll(name(k))
		}
		v.rerank()
		// Codes 3p, 3p+1 and 3p+2 stand for the name of perm[size/2+p];
		// held marks those the rows hold.
		pendingNames := perm[size/2:]
		held := newHeldCodes(3 * len(pendingNames))
		var rows [][]int32
		var wants [][]string
		for trial := 0; trial < 300; trial++ {
			row := make([]int32, rng.Intn(80))
			want := make([]string, len(row))
			for k := range row {
				if rng.Intn(2) == 0 {
					p := rng.Intn(len(pendingNames))
					want[k] = name(pendingNames[p])
					c := 3*p + rng.Intn(3)
					held.add(int32(c))
					row[k] = pendingItem(c)
				} else {
					want[k] = name(perm[rng.Intn(size/2+1)%size])
					row[k] = v.internAll(want[k])[0]
				}
			}
			slices.Sort(want)
			rows, wants = append(rows, row), append(wants, slices.Compact(want))
		}
		v.rerank()
		var runs [2][]term
		for slot, c := range held.list() {
			k := rng.Intn(2)
			runs[k] = append(runs[k], term{name(pendingNames[c/3]), int32(slot)})
		}
		for _, run := range runs {
			slices.SortFunc(run, byName)
			v.intern(run, held.index)
		}
		v.rerank()
		for k, row := range rows {
			rows[k] = v.normalise(row, held)[len(row):]
			if g := v.render(rows[k]); !slices.Equal(g, wants[k]) {
				t.Fatalf("size %d: row %d normalised to %v, want %v", size, k, g, wants[k])
			}
		}
		for batch := 0; batch < 10; batch++ {
			var names []string
			for k := rng.Intn(20); k >= 0; k-- {
				names = append(names, name(rng.Intn(4*size)))
			}
			got := v.internAll(names...)
			for k := range names {
				if v.names[got[k]] != names[k] {
					t.Fatalf("size %d: internAll(%q) = %d, which is %q", size, names[k], got[k], v.names[got[k]])
				}
			}
			v.rerank()
		}
		if len(v.byRank) != len(v.names) || !slices.IsSortedFunc(v.byRank, func(a, b int32) int {
			if v.names[a] > v.names[b] {
				return 1
			}
			return -1
		}) {
			t.Fatalf("size %d: byRank is not the strict byte order of the %d names", size, len(v.names))
		}
		for r, i := range v.byRank {
			if v.rank[i] != int32(r) {
				t.Fatalf("size %d: rank[%d] = %d, want %d", size, i, v.rank[i], r)
			}
		}
		for _, row := range rows {
			if !slices.IsSortedFunc(row, func(a, b int32) int { return int(v.rank[a]) - int(v.rank[b]) }) {
				t.Fatalf("size %d: row %v fell out of rank order when the vocabulary grew", size, v.render(row))
			}
		}
	}
}
