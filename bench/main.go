// Command bench is the end-to-end benchmark of qsrmine and qsrmined. It
// runs four closed-loop workloads — three qsrmine CLI paths and one
// qsrmined traffic mix — checks every answer, and prints each metric by
// name with its unit. See README.md in this directory.
//
// With -workload it runs that one workload and prints a JSON result as
// its last line. Without -workload it runs every workload in turn,
// -repeat times with seeds seed, seed+1, ... . -summarize DIR prints the
// median and quartiles of every metric over the run records in DIR.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/buildinfo"
)

// parts is how many fresh child processes a run is split into, one
// after another, each setting the workload up once and measuring an
// equal share of the window. A process keeps its own memory layout and
// garbage-collector rhythm for its whole life, and on the reference host
// that alone moves a workload's speed by about ten percent from one
// process to the next; taking the median over several processes in
// every run keeps that out of the run-to-run spread. It also makes
// setup_s a median over several set-ups.
const parts = 4

// processStart is when this process started; set-up is timed from here.
var processStart = time.Now()

func main() {
	workloadName := flag.String("workload", "", "run only this workload (cli-scene, cli-table, cli-colocate, serve-mix)")
	seed := flag.Int64("seed", 2007, "seed every input is generated from")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = untraced run reporting the end-to-end metrics")
	repeat := flag.Int("repeat", 1, "without -workload: runs of each workload, with seeds seed, seed+1, ...")
	out := flag.String("out", ".bench_build/records", "directory for run records and traced spans")
	summarize := flag.String("summarize", "", "print median, quartiles and spread of every metric over the run records in this directory, then exit")
	part := flag.Duration("part", 0, "internal: measure one part of a run, with this window, in this process")
	flag.Parse()

	var err error
	switch {
	case *summarize != "":
		err = summarizeRecords(os.Stdout, *summarize)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	case *part > 0:
		cfg := config{seed: *seed, window: *part, trace: *trace == 1, size: full, start: processStart, out: *out}
		err = runPart(*workloadName, cfg)
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace, *out)
	default:
		for r := 0; r < *repeat && err == nil; r++ {
			for _, w := range workloads {
				if err = runOne(w.name, *seed+int64(r), *seconds, *trace, *out); err != nil {
					break
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// partOutput is what one part of a run produced, handed from the part
// process to the run as one JSON line.
type partOutput struct {
	Result result `json:"result"`
	// Values holds every metric the part computed, whether or not its
	// mode reports it, plus fail_ratio and samples (ops in the window).
	Values   map[string]float64 `json:"values"`
	Failures []string           `json:"failures,omitempty"` // the first few failure messages
}

// runPart measures one part of a run in this process and prints it as
// one JSON line.
func runPart(name string, cfg config) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	p, err := runWorkload(context.Background(), w, cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(p)
}

// record is what one run writes to -out: the result line plus
// everything needed to compare it with another run.
type record struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Trace         bool               `json:"trace"`
	WindowSeconds int                `json:"windowSeconds"`
	Parts         int                `json:"parts"`
	Warmup        int                `json:"warmupOpsPerClient"`
	Clients       int                `json:"clients"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	NumCPU        int                `json:"nproc"`
	GoVersion     string             `json:"goVersion"`
	Revision      string             `json:"revision"`
	Time          time.Time          `json:"time"`
	Result        result             `json:"result"`
	Values        map[string]float64 `json:"values"`
}

// runOne runs one workload as parts child processes, one after another,
// combines them, writes the run record, and prints the metrics and then
// the result as the last line.
func runOne(name string, seed int64, seconds, trace int, out string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	window := time.Duration(seconds) * time.Second / parts
	var outs []partOutput
	for i := 0; i < parts; i++ {
		p, err := runChild(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-trace", strconv.Itoa(trace), "-out", out, "-part", window.String())
		if err != nil {
			return fmt.Errorf("%s: part %d: %w", name, i, err)
		}
		outs = append(outs, p)
	}
	res, values, failures := combineParts(outs, trace == 1)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "%s: %s\n", name, f)
	}

	rec := record{
		Workload: name, Seed: seed, Trace: trace == 1,
		WindowSeconds: seconds, Parts: parts, Warmup: w.warmup, Clients: w.clients,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Revision: buildinfo.Revision(),
		Time: time.Now().UTC(), Result: res, Values: values,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d-%d.json", name, seed, trace, time.Now().UnixNano()))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing run record: %w", err)
	}

	printMetrics(os.Stdout, name, res)
	fmt.Printf("# %s seed=%d gomaxprocs=%d nproc=%d %s rev=%q window=%ds parts=%d warmup=%d/client attempted=%d failed=%d fail_ratio=%g samples=%g\n",
		name, seed, rec.GOMAXPROCS, rec.NumCPU, rec.GoVersion, rec.Revision, seconds, parts, w.warmup,
		res.Attempted, res.Failed, values["fail_ratio"], values["samples"])
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChild runs one part process and parses the line it prints.
func runChild(self string, args ...string) (partOutput, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return partOutput{}, err
	}
	var p partOutput
	if err := json.Unmarshal(stdout.Bytes(), &p); err != nil {
		return partOutput{}, fmt.Errorf("parsing part output %q: %w", stdout.String(), err)
	}
	return p, nil
}

// combineParts merges the parts of a run: each metric is the median of
// the parts' values, ops are summed, and the run is correct only if
// every part was.
func combineParts(outs []partOutput, trace bool) (result, map[string]float64, []string) {
	res := result{Correct: true}
	perMetric := map[string][]float64{}
	var failures []string
	var samples float64
	for _, p := range outs {
		res.Correct = res.Correct && p.Result.Correct
		res.Attempted += p.Result.Attempted
		res.Failed += p.Result.Failed
		failures = append(failures, p.Failures...)
		samples += p.Values["samples"]
		for name, v := range p.Values {
			perMetric[name] = append(perMetric[name], v)
		}
	}
	values := map[string]float64{}
	for name, vs := range perMetric {
		values[name] = median(vs)
	}
	values["samples"] = samples
	values["fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	if trace {
		res.Metrics = pick(perLayer, values)
	} else {
		res.Metrics = pick(endToEnd, values)
	}
	return res, values, failures
}

// printMetrics prints one "workload metric value unit" line per metric.
func printMetrics(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-13s %-34s %14.6g %s\n", workload, name, m.Value, m.Unit)
	}
}

// summarizeRecords prints, per workload, run mode and metric, the
// median, quartiles and quartile spread (as a share of the median) over
// every run record in dir — the numbers the bounds in BENCHMARK.json
// are set from.
func summarizeRecords(w io.Writer, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	type key struct {
		workload string
		trace    bool
		metric   string
	}
	values := map[key][]float64{}
	units := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		for name, m := range rec.Result.Metrics {
			k := key{rec.Workload, rec.Trace, name}
			values[k] = append(values[k], m.Value)
			units[name] = m.Unit
		}
		k := key{rec.Workload, rec.Trace, "fail_ratio"}
		values[k] = append(values[k], rec.Values["fail_ratio"])
	}
	if len(values) == 0 {
		return errors.New("no run records in " + dir)
	}
	keys := make([]key, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.trace != b.trace {
			return !a.trace
		}
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(w, "%-13s %-5s %-34s %4s %12s %12s %12s %8s %s\n", "workload", "trace", "metric", "n", "median", "p25", "p75", "spread%", "unit")
	for _, k := range keys {
		vs := values[k]
		q1, q3 := quartiles(vs)
		med := median(vs)
		fmt.Fprintf(w, "%-13s %-5v %-34s %4d %12.6g %12.6g %12.6g %8.2f %s\n",
			k.workload, k.trace, k.metric, len(vs), med, q1, q3, 100*ratio(q3-q1, med), units[k.metric])
	}
	return nil
}

func init() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: bench [-workload NAME] [-seed N] [-seconds N] [-trace 0|1] [-repeat N] [-out DIR] | -summarize DIR\n\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-13s %s\n", w.name, w.why)
		}
		flag.PrintDefaults()
	}
}
