package transact

import (
	"strings"
	"testing"
)

// TestIndexKindText pins the wire names of the extraction index: rtree
// and none round-trip through MarshalText/UnmarshalText, "" means
// rtree, and the retired grid value is rejected by an error that names
// it and both valid values.
func TestIndexKindText(t *testing.T) {
	for _, tc := range []struct{ name, text, want string }{
		{"rtree", "rtree", "rtree"}, {"none", "none", "none"}, {"empty", "", "rtree"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var k IndexKind
			if err := k.UnmarshalText([]byte(tc.text)); err != nil {
				t.Fatalf("UnmarshalText(%q): %v", tc.text, err)
			}
			out, err := k.MarshalText()
			if err != nil || string(out) != tc.want {
				t.Errorf("UnmarshalText(%q) then MarshalText = %q, %v; want %q", tc.text, out, err, tc.want)
			}
		})
	}
	t.Run("grid", func(t *testing.T) {
		_, err := ParseIndexKind("grid")
		if err == nil {
			t.Fatal(`ParseIndexKind("grid") succeeded`)
		}
		for _, name := range []string{"grid", "rtree", "none"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not mention %s", err, name)
			}
		}
		var k IndexKind
		if err := k.UnmarshalText([]byte("grid")); err == nil {
			t.Errorf(`UnmarshalText("grid") succeeded with %v`, k)
		}
	})
	t.Run("unknown", func(t *testing.T) {
		if _, err := IndexKind(NoIndex + 1).MarshalText(); err == nil {
			t.Error("MarshalText accepted an unknown index kind")
		}
	})
}
