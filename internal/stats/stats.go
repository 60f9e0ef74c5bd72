// Package stats provides the small reporting utilities the experiment
// harness uses: labelled numeric series and an ASCII bar-chart renderer
// for terminal-friendly figure reproduction.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Series is a labelled sequence of numeric observations, one per x-axis
// point.
type Series struct {
	Name   string
	Values []float64
}

// BarChart renders grouped horizontal ASCII bars: one group per x label,
// one bar per series, scaled to width characters. The output reproduces
// the visual shape of the paper's bar figures in a terminal.
//
//	minsup=5%   apriori  ############################ 1735
//	            kc       ################# 1088
//	            kc+      ###### 399
func BarChart(labels []string, series []Series, width int) string {
	if width < 10 {
		width = 10
	}
	maxVal := 0.0
	nameWidth := 0
	for _, s := range series {
		if len(s.Name) > nameWidth {
			nameWidth = len(s.Name)
		}
		for _, v := range s.Values {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	labelWidth := 0
	for _, l := range labels {
		if len(l) > labelWidth {
			labelWidth = len(l)
		}
	}
	var b strings.Builder
	for xi, label := range labels {
		for si, s := range series {
			if xi >= len(s.Values) {
				continue
			}
			v := s.Values[xi]
			bar := 0
			if maxVal > 0 {
				bar = int(math.Round(v / maxVal * float64(width)))
			}
			if bar == 0 && v > 0 {
				bar = 1
			}
			rowLabel := label
			if si > 0 {
				rowLabel = ""
			}
			fmt.Fprintf(&b, "%-*s  %-*s %s %v\n",
				labelWidth, rowLabel, nameWidth, s.Name,
				strings.Repeat("#", bar), trimFloat(v))
		}
	}
	return b.String()
}

// trimFloat renders integers without a decimal point.
func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}
