// Command experiments reproduces every table and figure of the paper's
// evaluation, printing paper-versus-measured rows.
//
// Usage:
//
//	experiments              # run everything in paper order
//	experiments -run table2  # run one experiment
//	experiments -list        # list experiment identifiers
//	experiments -timing      # append per-stage wall time and a summary
//	experiments -bench-json BENCH_mining.json   # machine-readable mining benchmarks
//	experiments -bench-extract-json BENCH_extract.json   # spatial-join extraction benchmarks
//	experiments -bench-incremental-json BENCH_incremental.json   # delta vs from-scratch re-extraction
//	experiments -bench-colocation-json BENCH_colocation.json   # co-location mining workloads
//	experiments -bench-diff .                   # perf gate: re-measure vs committed baselines
//	experiments -bench-diff . -update-baseline  # refresh the committed baselines
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "", "experiment identifier to run (default: all)")
	list := flag.Bool("list", false, "list available experiment identifiers")
	timing := flag.Bool("timing", false, "print per-experiment wall time and a timing summary")
	benchJSON := flag.String("bench-json", "", "measure the Figure 4-7 mining workloads and write JSON results (ns/op, allocs/op, pass stats) to this file, then exit")
	benchExtractJSON := flag.String("bench-extract-json", "", "measure the spatial-join extraction workloads (per-pair relate and whole-scene extraction, prepared vs unprepared) and write JSON results to this file, then exit")
	benchIncrementalJSON := flag.String("bench-incremental-json", "", "measure incremental re-extraction against from-scratch extraction over deterministic mutation chains and write JSON results to this file, then exit")
	benchColocationJSON := flag.String("bench-colocation-json", "", "measure the co-location mining workloads (scene shape x parallelism) and write JSON results to this file, then exit")
	benchDiff := flag.String("bench-diff", "", "re-measure the mining, extraction, and co-location workloads and compare ns/op against the committed baselines (BENCH_mining.json, BENCH_extract.json, BENCH_colocation.json) in this directory; exit 1 when a workload regresses beyond the tolerance or disappears")
	updateBaseline := flag.Bool("update-baseline", false, "with -bench-diff: rewrite the baseline files from the fresh measurements instead of comparing")
	flag.Parse()

	if *benchJSON != "" {
		if err := writeTo(*benchJSON, experiments.WriteMiningBenchJSON); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *benchExtractJSON != "" {
		if err := writeTo(*benchExtractJSON, experiments.WriteExtractBenchJSON); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *benchIncrementalJSON != "" {
		if err := writeTo(*benchIncrementalJSON, experiments.WriteIncrementalBenchJSON); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *benchColocationJSON != "" {
		if err := writeTo(*benchColocationJSON, experiments.WriteColocationBenchJSON); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *benchDiff != "" {
		if err := runBenchDiff(*benchDiff, *updateBaseline); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
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
	// Run stage by stage (rather than experiments.All at once) so each
	// stage's wall time is attributable.
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

// writeTo runs one benchmark emitter and writes its output to path
// ("-" for stdout).
func writeTo(path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runBenchDiff is the perf regression gate: re-measure each suite,
// compare against the committed baseline in dir, and fail on any
// regression beyond experiments.DiffTolerance or any workload the
// fresh run lost. With update set, rewrite the baselines instead.
func runBenchDiff(dir string, update bool) error {
	suites := []struct {
		file string
		emit func(io.Writer) error
	}{
		{"BENCH_mining.json", experiments.WriteMiningBenchJSON},
		{"BENCH_extract.json", experiments.WriteExtractBenchJSON},
		{"BENCH_colocation.json", experiments.WriteColocationBenchJSON},
	}
	failed := false
	for _, s := range suites {
		var buf bytes.Buffer
		if err := s.emit(&buf); err != nil {
			return fmt.Errorf("%s: %w", s.file, err)
		}
		path := filepath.Join(dir, s.file)
		if update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Printf("updated %s\n", path)
			continue
		}
		findings, err := experiments.BenchDiff(path, buf.Bytes())
		if err != nil {
			return err
		}
		fmt.Printf("== %s ==\n", s.file)
		if experiments.FormatDiff(os.Stdout, findings) {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("bench diff: regression beyond %.0f%% tolerance (rerun on a quiet machine, or refresh with -bench-diff %s -update-baseline if the change is intended)",
			experiments.DiffTolerance*100, dir)
	}
	return nil
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
