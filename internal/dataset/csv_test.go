package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

func TestTableCSVRoundTrip(t *testing.T) {
	orig := PortoAlegreTable()
	var buf bytes.Buffer
	if err := orig.WriteTableCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTableCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("rows %d -> %d", orig.Len(), back.Len())
	}
	for i := range orig.Transactions {
		a, b := orig.Transactions[i], back.Transactions[i]
		if a.RefID != b.RefID {
			t.Errorf("row %d: %q -> %q", i, a.RefID, b.RefID)
		}
		if strings.Join(a.Items, "|") != strings.Join(b.Items, "|") {
			t.Errorf("row %d items changed", i)
		}
	}
}

func TestReadTableCSVComments(t *testing.T) {
	src := `# a comment
d1,contains_slum,touches_school

d2, contains_slum , contains_slum
`
	table, err := ReadTableCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (comment/blank skipped)", table.Len())
	}
	// Whitespace trimmed, duplicates removed.
	if len(table.Transactions[1].Items) != 1 || table.Transactions[1].Items[0] != "contains_slum" {
		t.Errorf("row 2 items = %v", table.Transactions[1].Items)
	}
}

func TestReadTableCSVErrors(t *testing.T) {
	if _, err := ReadTableCSV(strings.NewReader(",item\n")); err == nil {
		t.Error("empty reference ID should fail")
	}
}

func TestLoadTableCSV(t *testing.T) {
	path := t.TempDir() + "/table.csv"
	orig := PortoAlegreTable()
	var buf bytes.Buffer
	if err := orig.WriteTableCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	table, err := LoadTableCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 6 {
		t.Errorf("rows = %d", table.Len())
	}
	if _, err := LoadTableCSV(t.TempDir() + "/missing.csv"); err == nil {
		t.Error("missing file should fail")
	}
}

// writeFile is a minimal test helper around os.WriteFile.
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestReadTableCSVLongLines holds the reader to its predecessor's
// bufio.Scanner at the 16 MiB line limit: a line (without its '\n') of
// 16 MiB or more fails with bufio.ErrTooLong, a shorter one is read,
// whether it ends the input or not and whether it ends in CR LF.
func TestReadTableCSVLongLines(t *testing.T) {
	for _, n := range []int{maxTableLine - 1, maxTableLine} {
		line := "r1," + strings.Repeat("x", n-3)
		for _, end := range []string{"", "\n", "\r\n"} {
			data := "r0,a\n" + line + end
			got, err := ReadTableCSV(strings.NewReader(data))
			want, wantErr := readTableCSVOracle(strings.NewReader(data))
			if !sameTableResult(got, err, want, wantErr) {
				t.Errorf("line of %d bytes + %q: got %v, want %v", n, end, err, wantErr)
			}
			tooLong := n+len(strings.TrimSuffix(end, "\n")) >= maxTableLine
			if tooLong != errors.Is(err, bufio.ErrTooLong) {
				t.Errorf("line of %d bytes + %q: err %v, want ErrTooLong %v", n, end, err, tooLong)
			}
		}
	}
}

// TestReadTableCSVReaderError checks that the bytes read before a reader
// fails are parsed first, as the predecessor's bufio.Scanner parsed
// them: a bad line among them is reported, otherwise the read error is.
func TestReadTableCSVReaderError(t *testing.T) {
	boom := errors.New("boom")
	for _, prefix := range []string{
		"",
		"r1,a\nr2,b\n",
		"r1,b,a\nr2,c",    // partial final line
		"r1,a\n,b",        // bad partial line
		"r1,a\n# comment", // comment cut short
		"r1," + strings.Repeat("x", maxTableLine) + "\nr2,a\n", // too long before the error
	} {
		got, err := ReadTableCSV(io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(boom)))
		want, wantErr := readTableCSVOracle(io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(boom)))
		if !sameTableResult(got, err, want, wantErr) {
			t.Errorf("%.40q then error: got %v, want %v", prefix, err, wantErr)
		}
		if err == nil {
			t.Errorf("%.40q then error: no error", prefix)
		}
	}
}

// TestReadTableCSVChunkedReaders reads every fuzz seed through readers
// that report no length and deliver odd chunks, or data with EOF.
func TestReadTableCSVChunkedReaders(t *testing.T) {
	wrappers := map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data-err": iotest.DataErrReader,
	}
	for name, wrap := range wrappers {
		for _, data := range tableCSVSeeds {
			got, err := ReadTableCSV(wrap(strings.NewReader(data)))
			want, wantErr := readTableCSVOracle(strings.NewReader(data))
			if !sameTableResult(got, err, want, wantErr) {
				t.Errorf("%s reader, %.40q: got %q, %v; want %q, %v", name, data, got, err, want, wantErr)
			}
		}
	}
}

// TestReadTableCSVRowsCapped checks that rows share the parsed backing
// without overlapping: appending to one row's items leaves the next
// row as it was.
func TestReadTableCSVRowsCapped(t *testing.T) {
	table, err := ReadTableCSV(strings.NewReader("r1,b,a,b\nr2,c,d\nr3\nr4,e\n"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range table.Transactions {
		row := table.Transactions[i].Items
		if cap(row) != len(row) {
			t.Errorf("row %d: cap %d, len %d", i, cap(row), len(row))
		}
		_ = append(row, "clobber")
	}
	want := NewTable([]Transaction{
		{RefID: "r1", Items: []string{"a", "b"}},
		{RefID: "r2", Items: []string{"c", "d"}},
		{RefID: "r3"},
		{RefID: "r4", Items: []string{"e"}},
	})
	if !reflect.DeepEqual(table, want) {
		t.Errorf("got %q, want %q", table.Transactions, want.Transactions)
	}
}

func TestLoadTableCSVMatchesRead(t *testing.T) {
	var buf bytes.Buffer
	for _, s := range tableCSVSeeds {
		if !strings.HasPrefix(s, ",") { // the seeds that fail
			buf.WriteString(s)
			buf.WriteString("\n")
		}
	}
	path := t.TempDir() + "/table.csv"
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTableCSV(path)
	want, wantErr := readTableCSVOracle(bytes.NewReader(buf.Bytes()))
	if err != nil || wantErr != nil || !reflect.DeepEqual(loaded, want) {
		t.Errorf("LoadTableCSV = %v, %v; want the predecessor's table, %v", loaded.Len(), err, wantErr)
	}
}

// TestWriteTableCSVRefusesLossyRows is the regression test for rows the
// writer used to emit although the reader reads them back differently:
// a '#' reference ID read as a comment, a comma splitting an instance
// item in two, and white space the reader trims.
func TestWriteTableCSVRefusesLossyRows(t *testing.T) {
	long := strings.Repeat("x", maxTableLine-2) // "r," + long is 16 MiB
	for name, tx := range map[string]Transaction{
		"comment refID":       {RefID: "#d1", Items: []string{"contains_slum"}},
		"comma in item":       {RefID: "d2", Items: []string{"contains_slum, Vila Cruzeiro"}},
		"padded refID":        {RefID: " d3", Items: []string{"contains_slum"}},
		"padded item":         {RefID: "d4", Items: []string{" padded"}},
		"trailing-space item": {RefID: "d5", Items: []string{"padded\t"}},
		"empty refID":         {RefID: "", Items: []string{"a"}},
		"comma in refID":      {RefID: "d,6", Items: []string{"a"}},
		"newline in refID":    {RefID: "d\n7", Items: []string{"a"}},
		"newline in item":     {RefID: "d8", Items: []string{"a\nb"}},
		"empty item":          {RefID: "d9", Items: []string{"a", ""}},
		"bare padded refID":   {RefID: "d10 "},
		"16 MiB line":         {RefID: "r", Items: []string{long}},
	} {
		table := &Table{Transactions: []Transaction{{RefID: "ok", Items: []string{"a"}}, tx}}
		var out bytes.Buffer
		err := table.WriteTableCSV(&out)
		if err == nil || !strings.Contains(err.Error(), "row 2 ") {
			t.Errorf("%s: err = %v, want one naming row 2", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote %d bytes before refusing", name, out.Len())
		}
	}
	// What the reader does keep round-trips: a trailing space before the
	// first comma, inner white space and '#', CR inside a field, a line
	// just under the limit.
	table := &Table{Transactions: []Transaction{
		{RefID: "d1 ", Items: []string{"b", "a #x", "b"}},
		{RefID: "d\r2", Items: []string{"x\ry"}},
		{RefID: "d3"},
		{RefID: "r", Items: []string{long[1:]}},
	}}
	var out bytes.Buffer
	if err := table.WriteTableCSV(&out); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTableCSV(&out)
	if err != nil || !reflect.DeepEqual(back, NewTable(table.Transactions)) {
		t.Errorf("round trip failed: %v", err)
	}
}

// countingWriter counts Write calls.
type countingWriter struct{ writes, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

func TestWriteTableCSVOneWrite(t *testing.T) {
	var w countingWriter
	if err := PortoAlegreTable().WriteTableCSV(&w); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := PortoAlegreTable().WriteTableCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 || w.bytes != buf.Len() {
		t.Errorf("%d writes of %d bytes, want 1 of %d", w.writes, w.bytes, buf.Len())
	}
}
