package stats

import (
	"strings"
	"testing"
)

func TestBarChart(t *testing.T) {
	out := BarChart(
		[]string{"5%", "10%"},
		[]Series{
			{Name: "apriori", Values: []float64{100, 50}},
			{Name: "kc+", Values: []float64{25, 10}},
		},
		20,
	)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("chart lines = %d:\n%s", len(lines), out)
	}
	// The maximum value fills the full width.
	if !strings.Contains(lines[0], strings.Repeat("#", 20)) {
		t.Errorf("max bar not full width: %q", lines[0])
	}
	// Half the max gets half the bar.
	if !strings.Contains(lines[2], strings.Repeat("#", 10)) || strings.Contains(lines[2], strings.Repeat("#", 11)) {
		t.Errorf("half bar wrong: %q", lines[2])
	}
	// Group labels appear once per group.
	if !strings.HasPrefix(lines[0], "5%") || strings.HasPrefix(lines[1], "5%") {
		t.Errorf("labels wrong:\n%s", out)
	}
	// Values are printed.
	if !strings.Contains(lines[0], "100") {
		t.Errorf("value missing: %q", lines[0])
	}
}

func TestBarChartEdgeCases(t *testing.T) {
	// Tiny positive values still render one hash.
	out := BarChart([]string{"x"}, []Series{{Name: "s", Values: []float64{0.001, 0}}, {Name: "big", Values: []float64{1000}}}, 30)
	if !strings.Contains(out, "#") {
		t.Error("tiny value lost its bar")
	}
	// Zero-width clamps.
	out = BarChart([]string{"x"}, []Series{{Name: "s", Values: []float64{5}}}, 0)
	if !strings.Contains(out, "#") {
		t.Error("clamped width chart empty")
	}
	// Series shorter than labels are skipped gracefully.
	out = BarChart([]string{"a", "b"}, []Series{{Name: "s", Values: []float64{1}}}, 10)
	if strings.Count(out, "\n") != 1 {
		t.Errorf("short series handling wrong:\n%q", out)
	}
	// All-zero series renders without bars but with values.
	out = BarChart([]string{"a"}, []Series{{Name: "s", Values: []float64{0}}}, 10)
	if !strings.Contains(out, "0") {
		t.Error("zero value not printed")
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(42) != "42" {
		t.Errorf("trimFloat(42) = %q", trimFloat(42))
	}
	if trimFloat(42.5) != "42.50" {
		t.Errorf("trimFloat(42.5) = %q", trimFloat(42.5))
	}
}
