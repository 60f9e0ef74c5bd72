package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/mining"
)

// tablePathGolden pins every stage of the transaction-table path: the
// table ReadTableCSV parses, the DB NewDB interns from it (rows and
// dictionary order), and the RunTableContext outcome of both KC+ engines
// (frequent itemsets in result order, rules in output order with every
// measure's exact bits). The digests were recorded with the per-item
// allocating reader, interner and rule enumerator, so they also make
// the tie order of GenerateRules' unstable sort a tested contract.
var tablePathGolden = map[string]string{
	"dataset1/seed=1/rows=100/apriori-kc+":      "f74ac04f272cff8fc53c65354a64ec929e01e683294b9d368e638f7dbaf47f2f",
	"dataset1/seed=1/rows=100/db":               "bb5b074807a50879eb8ce09110fdd6fc83b700a89853bf17afa84997108a46a5",
	"dataset1/seed=1/rows=100/eclat-kc+":        "20ab7a33778695212b7531354f3c3c7c722a4dbd824ed1e9e4c9eb22f1913625",
	"dataset1/seed=1/rows=100/table":            "223c578fc3282ecb51dc6ac8adf767dd4d27368f6013d12963302d33bde0fe06",
	"dataset1/seed=1/rows=2000/apriori-kc+":     "d44d538554e63e268a546896474c644cb3bf46e6d415df04ad518ee9ed20498a",
	"dataset1/seed=1/rows=2000/db":              "9ef155e44ef256cc12bebc5a04f42e204d8c9eb8812a35140eecbe6c9042d9bb",
	"dataset1/seed=1/rows=2000/eclat-kc+":       "d00b44c8b83e7c5dd0475a2c462fda9a60178a6d0bb69a15b26fef716a8b59d0",
	"dataset1/seed=1/rows=2000/table":           "611bb0c43f4cd93e8d0c29bdf02d3c2d31087c10164e9ecafa13bc8c91b2f356",
	"dataset1/seed=1/rows=20000/apriori-kc+":    "5bea5afdeb763558651c47e1e27ce8e096ea800f4b973981567ddcdec6b61cfd",
	"dataset1/seed=1/rows=20000/db":             "962de5d9260d2f9dbd84680ba164743a4b76f75c49af013fa8ef8a922109e4b0",
	"dataset1/seed=1/rows=20000/eclat-kc+":      "65c557b1ffd5eeb4900c350aac9e41adbda232d011ccc91a5644575c2d925ba6",
	"dataset1/seed=1/rows=20000/table":          "07649504a4f5488e7355074f82045e576fd3e1184bf07fd1b0cb7fc17ed0c052",
	"dataset1/seed=2007/rows=100/apriori-kc+":   "5255720be78544cfea0231b16dd977435f3bbe0bcd2973eaff1463a57ddd4bea",
	"dataset1/seed=2007/rows=100/db":            "144929779fab9ab330488ddd62590af1403cca924a580516cf1c8074ed54b610",
	"dataset1/seed=2007/rows=100/eclat-kc+":     "fe0a36c8a72ccb4a7d4e66c5bc3519d6529f709b5e7136fde67ba073f1742e4c",
	"dataset1/seed=2007/rows=100/table":         "a238beb4c14c3cfac8f2ff68dc98830b9cd1b19934ac5580b77b5e251332969b",
	"dataset1/seed=2007/rows=2000/apriori-kc+":  "44d7b7cef4348e9c732a98e92f95b602cf25c659738f5046c184bbbdee86c457",
	"dataset1/seed=2007/rows=2000/db":           "73504bdc84a62502078f85797e4d9a48d474b5d97372aa2b634d3ed236a08174",
	"dataset1/seed=2007/rows=2000/eclat-kc+":    "1e78597d4bd888003f732019cebf12b68ae0c829c80436c5d9cae28b0a2a9361",
	"dataset1/seed=2007/rows=2000/table":        "db98e6860ee0a442577aada0b3b0592828b1ae7ffb214e03277d022e0c5e47b8",
	"dataset1/seed=2007/rows=20000/apriori-kc+": "e556ca10ebf675dc13f1861f81bf0c44c250839ff9235343574699a4208be155",
	"dataset1/seed=2007/rows=20000/db":          "1d90278e1eeff0e06e65264cb127ddcbdf90119380ad883272874768b3e1059d",
	"dataset1/seed=2007/rows=20000/eclat-kc+":   "6f73415478f36825be735677e234a9edc00c88e7046ca3668b1f3dbc3077ab20",
	"dataset1/seed=2007/rows=20000/table":       "895a0daab7fb9487de11366f74d4f240ed03ed8bc1be3e378b6e498a2bcd1760",
	"dataset1/seed=7/rows=100/apriori-kc+":      "6aa817df0eea418328a5d030100e297135072ceebade853f4b7980a6e094d53d",
	"dataset1/seed=7/rows=100/db":               "1d180b854c525591056d48fc51b1f4d32b4503d9c9baa05a0c6fa483ffc9812a",
	"dataset1/seed=7/rows=100/eclat-kc+":        "560550f597d6192f851fe8dffc23a4a17ed5b2afa56e770df4b96cea0a13a499",
	"dataset1/seed=7/rows=100/table":            "8a916a6fe4cfb9aa6106ba7760e59bd823892f3fdc76ad187ab4ea5c2dbd6763",
	"dataset1/seed=7/rows=2000/apriori-kc+":     "f78be6735e5988ee41237a4f7c8cc6aed2c57fc3155d81666d484d3cc71e2f07",
	"dataset1/seed=7/rows=2000/db":              "9890875bb65e2ba2550780679a7d245840b3cf88ddc553b526476b1ab0e058e0",
	"dataset1/seed=7/rows=2000/eclat-kc+":       "db2e5063a648e21a853f73c17a9dd8fdffaacd7eee0a120f096367300c08ebfd",
	"dataset1/seed=7/rows=2000/table":           "c2dfc844e2083d178cafa0e386fb13902dcc7cd83b0533eb9b5b62f7ab1aef0c",
	"dataset1/seed=7/rows=20000/apriori-kc+":    "b60c508971b9b03267d5d0742d5faf7030bf234752f33d252bf8c962fdb25aea",
	"dataset1/seed=7/rows=20000/db":             "1e59dc69c204483cc96439589deba90b8b977f4e5863b12833bbfeeb6d09cc9a",
	"dataset1/seed=7/rows=20000/eclat-kc+":      "3977246e46074677c11171049c04327410e53f3a07c1e5f7963536cf6ebc9bfd",
	"dataset1/seed=7/rows=20000/table":          "92c2b58ea23a23df42db0661078df22d3415ddbad669c721ee9751420ddb9cc8",
	"dataset2/seed=1/rows=100/apriori-kc+":      "1204291f6aca7136c220d2cac8a9a458bb494be3d945ce2bc95f51008d632635",
	"dataset2/seed=1/rows=100/db":               "d176e9f28b1066e2f8d335a4e934338d31f38890b27aaad0406299b44431fa4a",
	"dataset2/seed=1/rows=100/eclat-kc+":        "c56542ecd046e6bbda938ad60f39128a63e80b24f338e669d8d41756d4644e2f",
	"dataset2/seed=1/rows=100/table":            "cde2271c9b48726e7da91dedd0a40bb5a778794394b5095b3195f78253689e7a",
	"dataset2/seed=1/rows=2000/apriori-kc+":     "cf0c24406ae53f0dadc027f74a8f3816edc915794b75f632278167d458cc0c06",
	"dataset2/seed=1/rows=2000/db":              "7c2ae66b6349ff7e6b17cf04b4dd0285b791dc9b8b720e0ac18faebb266de9b8",
	"dataset2/seed=1/rows=2000/eclat-kc+":       "43e0d1076afe15266697fbd4f1629fdbf58cb532e556c2cd30b318ff0120aa32",
	"dataset2/seed=1/rows=2000/table":           "fc32229836198826e01d40d2e8f0f7f617a99a3ba0a10fd7e9354590f2d05ed4",
	"dataset2/seed=1/rows=20000/apriori-kc+":    "4642239cc756720dfafe617379d3e7945a1cc926ed30ccd32ebda57cd4ecb150",
	"dataset2/seed=1/rows=20000/db":             "b0a42d9626c87defbc116de50b73a10c40ed8f793f40acc58455bd1e0ae6b47a",
	"dataset2/seed=1/rows=20000/eclat-kc+":      "28918d71a64756f7c5429e1106677e03b0e21735973542c4259154bb16c39633",
	"dataset2/seed=1/rows=20000/table":          "8c7af481c284e285d1239ff1109bfd1619febcdbcc26360d507feea4f3eec488",
	"dataset2/seed=2007/rows=100/apriori-kc+":   "3ad49676395a162a7e5ae2e5b9a49ae2b2ceb959ee7141d3adce6d1a48083a7d",
	"dataset2/seed=2007/rows=100/db":            "81729531ea1d7271a999b9381fd55541cb0e6af1b50cc724492ced12ee2dabdc",
	"dataset2/seed=2007/rows=100/eclat-kc+":     "ed09ab9a991eb3e4e103b9a586fb0352573b1cf229baf76989c440fb790e0c42",
	"dataset2/seed=2007/rows=100/table":         "8ca383488fc346c349cd97405bad754ed774f683668d7038ee641854dce28e2d",
	"dataset2/seed=2007/rows=2000/apriori-kc+":  "776ecf3097988f1952295fa24e29bbfdc98af82ba331d8333d4c3cfa54769749",
	"dataset2/seed=2007/rows=2000/db":           "2a241f8c31f96fa0ce5696ad76d248893c1a39bb01625900c21ea734610de905",
	"dataset2/seed=2007/rows=2000/eclat-kc+":    "0e3c57ca556446f56de1201801db0f590ee3dcc1ea5ff394b59a8ab8bfaa49d8",
	"dataset2/seed=2007/rows=2000/table":        "41c676524f7a2ff15c5aa51a68313e5d4dbd93d5d44e4b0833bbf304acf5972a",
	"dataset2/seed=2007/rows=20000/apriori-kc+": "1b32ca1cb79e4436c03e183b78d2c64e3ea0775204f293a3ea9039a1c1b0f506",
	"dataset2/seed=2007/rows=20000/db":          "fb4680cb1ee39b45251c665abe60bca41d4ba9618d05b58b117ce369bc7e985a",
	"dataset2/seed=2007/rows=20000/eclat-kc+":   "967cd0d636b70c0295af02969e9f0dc8278cd5931644854cef0e56f5e90459ed",
	"dataset2/seed=2007/rows=20000/table":       "834b479e8bb9d4c489ccf7815183bb36e97e54acb2c848d6f502a5b9ee74b833",
	"dataset2/seed=7/rows=100/apriori-kc+":      "d23b23c6eaf296106cbf533e69878b41264048693c5b392205b3966c085b3aed",
	"dataset2/seed=7/rows=100/db":               "a52197aac67e2f09af9dcd22abc32bd252f241011e3f956d458ca58df4a29180",
	"dataset2/seed=7/rows=100/eclat-kc+":        "0154a1e3c9c6e847d8026c09a1c65f38876907c78cf4f8ae9c5f583d7c41e616",
	"dataset2/seed=7/rows=100/table":            "c231e199e8abefdd057dae1d1daf3518deeadb5afd89d48c6dce2d24e169b349",
	"dataset2/seed=7/rows=2000/apriori-kc+":     "44ce08ec38dc3474d6a9dfb15995715c7fb8d2953f9eb0d69b111bc1466b8553",
	"dataset2/seed=7/rows=2000/db":              "8b6c9da383e0506dd579cbbbb8306b18e18c75b312b84c874b4d1a805b763da6",
	"dataset2/seed=7/rows=2000/eclat-kc+":       "ed2a8ace8122214b2b4faaa82779da241107a99c3c51ec40d0b094d924b1bea6",
	"dataset2/seed=7/rows=2000/table":           "8cdfc07d5ce6efe72e80409eb29010b47caa815d7a0665caf456dea7685103cd",
	"dataset2/seed=7/rows=20000/apriori-kc+":    "4d920420532de6a5ff6962a0ec5a0bce7d42c92fb52566b79c6a6103ce22b90d",
	"dataset2/seed=7/rows=20000/db":             "814d6b28a24dde051e39bb6ba0004ca1f3930c48db7e83bb68eea590c07cc646",
	"dataset2/seed=7/rows=20000/eclat-kc+":      "cebfa7884ceb16607985370093df19b1c65b090004cb67d839bd851d6bf943f0",
	"dataset2/seed=7/rows=20000/table":          "716640aed80f880035642646717a2447767d73f6a111e34ae2000879a584514c",
	"hand/apriori-kc+":                          "0a01b6ec9f4a4c8a3910683f251cb628bd0720b722c4fb2a5723cb3f6999a907",
	"hand/db":                                   "64a637d50cf93b7029d56042cf39066f9db59819520d832d9fcf898f1c42dc57",
	"hand/eclat-kc+":                            "86085e6b0f614741a3a26fa5739123d0c86f75a213dbbcbe2890c3fc116e2598",
	"hand/table":                                "cdc555d25933716dc58b84a970f0049a7d6f2bf86c4a64c33b73d4d4c697f546",
	"portoalegre/apriori-kc+":                   "0145174ead99f39916d22fb5d6170ffda2cf60710ea819f0edb58c85a98b62d3",
	"portoalegre/db":                            "aee81264080eba2acc9a8a484fd9cbcb4910d1bf078d1c186ad4e00e671cde52",
	"portoalegre/eclat-kc+":                     "ed62145613dbe387de23cfb00842603fb17e5a503de224bbe80a70c2cd05ebc1",
	"portoalegre/table":                         "96685050f9aed41878390291f2e5c7550f1504fbfde5096c90649c1861a31ea3",
	"table2/apriori-kc+":                        "da740c55dbc391ac98525686028810c3a3eda11561663da3488b0243dd358108",
	"table2/db":                                 "6596a742ad58a7a6d92b41a0f5c8e9b340c2889cf3e4cf752bd48f032f74ced0",
	"table2/eclat-kc+":                          "21a35c4255a1e009bd7d6c47ddf7bdc0b139bea05381807a9447d04618651fc3",
	"table2/table":                              "7211876907a7cc22603395bba15c5b16847020da629898279e1c9c71b7a79936",
}

// handTableCSV is a hand-written table exercising the reader's edge
// cases: comments (indented too), blank and whitespace-only lines,
// CRLF and a lone CR, tab/NBSP/U+0085/U+2028 padding, invalid UTF-8,
// empty items, a row with only a reference ID, a reference ID with a
// trailing space, duplicated and unsorted items, and no final newline.
const handTableCSV = "# hand-written table\n" +
	"d1,contains_slum,touches_school,crimeRate=high\r\n" +
	"  # indented comment\n" +
	"\n" +
	"   \t \n" +
	"d2,\tcontains_slum\t,touches_slum,overlaps_slum,contains_slum\n" +
	"d3 ,crimeRate=high,contains_slum,touches_school\n" +
	"d4, touches_school ,\u0085contains_school,crimeRate=low\u00a0\n" +
	"d5,,a,touches_school,contains_slum\n" +
	"r1,,a\n" +
	"d11,\u2028touches_school\u2028,contains_slum\n" +
	"d6\n" +
	"d7,caf\xe9,contains_slum,touches_school,crimeRate=high\n" +
	"d8,item\rwith cr,touches_school,contains_slum,crimeRate=high\n" +
	"d9,zeta,alpha,contains_slum,touches_school,zeta\n" +
	"d10,contains_school,touches_school,crimeRate=low"

// goldenTableCase is one input of the table-path digests with the
// mining configuration it runs under.
type goldenTableCase struct {
	csv []byte
	cfg Config
}

func goldenTableCases(t testing.TB) map[string]goldenTableCase {
	cases := map[string]goldenTableCase{
		"hand": {csv: []byte(handTableCSV), cfg: Config{MinSupport: 0.3, GenerateRules: true, MinConfidence: 0.7}},
	}
	encode := func(tab *dataset.Table) []byte {
		var buf bytes.Buffer
		if err := tab.WriteTableCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	paper := Config{MinSupport: 0.5, GenerateRules: true, MinConfidence: 0.7}
	cases["portoalegre"] = goldenTableCase{csv: encode(dataset.PortoAlegreTable()), cfg: paper}
	cases["table2"] = goldenTableCase{csv: encode(dataset.Table2Reconstruction()), cfg: paper}
	deps := make([]mining.Pair, len(datagen.Dataset1Dependencies))
	for i, p := range datagen.Dataset1Dependencies {
		deps[i] = mining.Pair{A: p.A, B: p.B}
	}
	gens := []struct {
		name string
		gen  func(int64, int) (*dataset.Table, error)
		cfg  Config
	}{
		// Dataset 1 runs the cli-table benchmark configuration.
		{"dataset1", datagen.PaperDataset1, Config{MinSupport: 0.01, Dependencies: deps, GenerateRules: true, MinConfidence: 0.7}},
		{"dataset2", datagen.PaperDataset2, Config{MinSupport: 0.05, GenerateRules: true, MinConfidence: 0.7}},
	}
	for _, g := range gens {
		for _, seed := range []int64{1, 7, 2007} {
			for _, rows := range []int{100, 2000, 20000} {
				tab, err := g.gen(seed, rows)
				if err != nil {
					t.Fatal(err)
				}
				cfg := g.cfg
				if rows == 100 {
					// At 1 % of 100 rows every itemset of every row is
					// frequent; 10 % keeps the lattice small.
					cfg.MinSupport = 0.1
				}
				cases[fmt.Sprintf("%s/seed=%d/rows=%d", g.name, seed, rows)] = goldenTableCase{csv: encode(tab), cfg: cfg}
			}
		}
	}
	return cases
}

func TestTablePathGoldenDigests(t *testing.T) {
	for name, c := range goldenTableCases(t) {
		t.Run(name, func(t *testing.T) {
			table, err := dataset.ReadTableCSV(bytes.NewReader(c.csv))
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage, got string) {
				key := name + "/" + stage
				if want := tablePathGolden[key]; got != want {
					t.Errorf("%s digest moved:\n got %q\nwant %q", key, got, want)
				}
			}
			check("table", digestTable(table))
			check("db", digestDB(itemset.NewDB(table)))
			for _, alg := range []Algorithm{AlgAprioriKCPlus, AlgEclatKCPlus} {
				cfg := c.cfg
				cfg.Algorithm = alg
				out, err := RunTableContext(context.Background(), table, cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(alg.String(), digestOutcome(out))
			}
		})
	}
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func digestTable(table *dataset.Table) string {
	h := sha256.New()
	for _, tx := range table.Transactions {
		fmt.Fprintf(h, "%q", tx.RefID)
		for _, it := range tx.Items {
			fmt.Fprintf(h, " %q", it)
		}
		fmt.Fprintln(h)
	}
	return sum(h)
}

func digestDB(db *itemset.DB) string {
	h := sha256.New()
	for id := 0; id < db.Dict.Len(); id++ {
		m := db.Dict.Meta(int32(id))
		fmt.Fprintf(h, "item %d %q %d %q %d\n", id, m.Name, m.Kind, m.FeatureType, m.Relation)
	}
	for _, row := range db.Rows {
		fmt.Fprintln(h, "row", []int32(row))
	}
	return sum(h)
}

func digestOutcome(out *Outcome) string {
	h := sha256.New()
	d := out.DB.Dict
	res := out.Result
	fmt.Fprintf(h, "n=%d minsup=%d pruned=%d/%d\n", res.NumTransactions, res.MinSupportCount, res.PrunedDeps, res.PrunedSameFeature)
	for _, s := range res.Stats {
		fmt.Fprintf(h, "pass k=%d c=%d deps=%d same=%d f=%d\n", s.K, s.Candidates, s.PrunedDeps, s.PrunedSameFeature, s.Frequent)
	}
	for _, f := range res.Frequent {
		fmt.Fprintf(h, "F %s %d\n", strings.Join(f.Items.Names(d), "|"), f.Support)
	}
	for _, r := range out.Rules {
		fmt.Fprintf(h, "R %s -> %s %d %x %x %x %x %x\n",
			strings.Join(r.Antecedent.Names(d), "|"), strings.Join(r.Consequent.Names(d), "|"), r.SupportCount,
			math.Float64bits(r.Support), math.Float64bits(r.Confidence), math.Float64bits(r.Lift),
			math.Float64bits(r.Leverage), math.Float64bits(r.Conviction))
	}
	return sum(h)
}
