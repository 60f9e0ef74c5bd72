package dataset_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// writeTableCSVGolden pins WriteTableCSV's bytes for representable
// tables. The digests were recorded with the writer that made one
// fmt.Fprintf per reference ID and item.
var writeTableCSVGolden = map[string]string{
	"dataset1/seed=1/rows=20000":    "5363e6e16e8dba20a0240ed937a58467aa5e69be345f34ac837d1e73ccb70dca",
	"dataset1/seed=2007/rows=20000": "670356b0e9162361fcef9414fb2674ee791433d1000073cbfa466cf81a8e6ec2",
	"empty":                         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"portoalegre":                   "698f0ae489d44cf7d0dbac444ee968e9d7e7250d2ac6eeec0da1ff0e8610c4b2",
	"raw":                           "d6bacd7b2caa42e7867a100bf8b8d568583961c1d825337e6dd522cdafffe71b",
	"table2":                        "61e4e960fa693ff0d50fd11ffc4c087ad60ccdabd006f7a88342561b7bae4d33",
}

func TestWriteTableCSVGoldenDigests(t *testing.T) {
	tables := map[string]*dataset.Table{
		"portoalegre": dataset.PortoAlegreTable(),
		"table2":      dataset.Table2Reconstruction(),
		"empty":       dataset.NewTable(nil),
		// Written as given: unsorted, duplicated, inner spaces, non-ASCII.
		"raw": {Transactions: []dataset.Transaction{
			{RefID: "b", Items: []string{"z", "a", "z"}},
			{RefID: "a"},
			{RefID: "c d", Items: []string{"x y", "caf\u00e9", "tab\tinside"}},
		}},
	}
	for _, seed := range []int64{1, 2007} {
		tab, err := datagen.PaperDataset1(seed, 20000)
		if err != nil {
			t.Fatal(err)
		}
		tables[fmt.Sprintf("dataset1/seed=%d/rows=20000", seed)] = tab
	}
	for name, tab := range tables {
		var buf bytes.Buffer
		if err := tab.WriteTableCSV(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got, want := hex.EncodeToString(sum[:]), writeTableCSVGolden[name]; got != want {
			t.Errorf("%s: WriteTableCSV digest moved:\n got %q\nwant %q", name, got, want)
		}
	}
}
