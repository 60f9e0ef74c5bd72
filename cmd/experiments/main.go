// Command experiments reproduces every table and figure of the paper's
// evaluation, printing paper-versus-measured rows.
//
// Usage:
//
//	experiments              # run everything in paper order
//	experiments -run table2  # run one experiment
//	experiments -list        # list experiment identifiers
//	experiments -timing      # append per-stage wall time and a summary
//
// End-to-end performance is measured by the separate benchmark module:
// bash bench/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "", "experiment identifier to run (default: all)")
	list := flag.Bool("list", false, "list available experiment identifiers")
	timing := flag.Bool("timing", false, "print per-experiment wall time and a timing summary")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *run != "" {
		if _, ok := experiments.ByID(*run); !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q; use -list\n", *run)
			os.Exit(2)
		}
		runOne(*run, *timing)
		return
	}
	// Run stage by stage so each stage's wall time is attributable.
	var total time.Duration
	var lines []string
	for _, id := range experiments.IDs() {
		elapsed := runOne(id, *timing)
		total += elapsed
		lines = append(lines, fmt.Sprintf("  %-12s %12v", id, elapsed.Round(time.Microsecond)))
		fmt.Println()
	}
	if *timing {
		fmt.Println("== timing: per-stage wall time ==")
		for _, l := range lines {
			fmt.Println(l)
		}
		fmt.Printf("  %-12s %12v\n", "total", total.Round(time.Microsecond))
	}
}

// runOne executes and prints one experiment, returning its wall time.
func runOne(id string, timing bool) time.Duration {
	start := time.Now()
	report, _ := experiments.ByID(id)
	elapsed := time.Since(start)
	fmt.Print(report.Format())
	if timing {
		fmt.Printf("-- stage %s: %v --\n", id, elapsed.Round(time.Microsecond))
	}
	return elapsed
}
