package dataset

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// chunkTableBodies are ReadTableCSV bodies for the chunk-count tests:
// the fuzz seeds, the csv_test.go inputs, a generated table, the
// generated table with bad lines in a later chunk and in two chunks,
// and lines short enough to outgrow a chunk's windows.
func chunkTableBodies(t testing.TB) map[string]string {
	bodies := map[string]string{
		"comments":     "# a comment\nd1,contains_slum,touches_school\n\nd2, contains_slum , contains_slum\n",
		"empty ref":    ",item\n",
		"rows capped":  "r1,b,a,b\nr2,c,d\nr3\nr4,e\n",
		"empty":        "",
		"only newline": "\n\n\n",
		"no newline":   "r1,b,a",
		"long line":    "r0,a\nr1," + strings.Repeat("x", maxTableLine) + "\nr2,b\n",
		"limit line":   "r0,a\nr1," + strings.Repeat("x", maxTableLine-4) + "\r\nr2,b\n",
	}
	for i, s := range tableCSVSeeds {
		bodies[fmt.Sprintf("seed %d", i)] = s
	}
	var buf bytes.Buffer
	if err := PortoAlegreTable().WriteTableCSV(&buf); err != nil {
		t.Fatal(err)
	}
	bodies["portoalegre"] = buf.String()
	buf.Reset()
	for i := range 300 {
		// Unsorted rows with repeats, items of two kinds, some rows bare.
		fmt.Fprintf(&buf, "d%d", i)
		for j := range i % 7 {
			fmt.Fprintf(&buf, ",%s_%d", []string{"touches_slum", "crimeRate=high", "contains_school"}[(i+j)%3], (i*j)%5)
		}
		buf.WriteString("\n")
	}
	gen := buf.String()
	bodies["generated"] = gen
	lines := strings.SplitAfter(gen, "\n")
	bad := func(at ...int) string {
		out := append([]string(nil), lines...)
		for _, i := range at {
			out[i] = ",orphan item\n"
		}
		return strings.Join(out, "")
	}
	bodies["bad line at the end"] = bad(len(lines) - 2)
	bodies["bad lines in two chunks"] = bad(len(lines)*5/8, len(lines)*7/8)
	bodies["bad line after a comment"] = "# c\n\n" + bad(len(lines)*3/4)
	// Lines this short outgrow the capped row and item windows.
	short := strings.Repeat("a,b\n", 200)
	bodies["short lines"] = short
	bodies["short lines first"] = short + gen
	bodies["short lines last"] = gen + short
	bodies["too long in a later chunk"] = gen + "r," + strings.Repeat("y", maxTableLine) + "\n"
	bodies["too long after a bad line"] = bad(len(lines)/2) + "r," + strings.Repeat("y", maxTableLine) + "\n"
	return bodies
}

// TestParseTableCSVChunks requires every chunk count from 1 to 8 to
// parse every body as the reader before chunks (readTableCSVOracle)
// does: the same error text, so the same line number, or deeply equal
// tables whose rows are capacity-capped.
func TestParseTableCSVChunks(t *testing.T) {
	for name, body := range chunkTableBodies(t) {
		want, wantErr := readTableCSVOracle(strings.NewReader(body))
		for chunks := 1; chunks <= 8; chunks++ {
			got, err := parseTableCSV(body, chunks)
			if !sameTableResult(got, err, want, wantErr) {
				t.Errorf("%s at %d chunks: got %.60q, %v; want %.60q, %v", name, chunks, got, err, want, wantErr)
				continue
			}
			if err != nil {
				continue
			}
			for i, tx := range got.Transactions {
				if cap(tx.Items) != len(tx.Items) {
					t.Errorf("%s at %d chunks: row %d has cap %d, len %d", name, chunks, i, cap(tx.Items), len(tx.Items))
				}
			}
		}
	}
}
