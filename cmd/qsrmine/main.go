// Command qsrmine mines frequent spatial patterns from a geographic
// dataset file (JSON with WKT geometries; see dataset.WriteJSON) or from
// the built-in Porto Alegre sample.
//
// Usage:
//
//	qsrmine -sample -minsup 0.5 -alg apriori-kc+
//	qsrmine -data city.json -minsup 0.1 -alg apriori -rules -minconf 0.7
//	qsrmine -table transactions.csv -minsup 0.05
//	qsrmine -data city.json -deps "contains_street:contains_illuminationPoint,..."
//	qsrmine -data city.json -mutate edits.json          # apply edits, re-extract incrementally
//	qsrmine -data city.json -colocate -dist 2 -minpi 0.4   # co-location mining (participation index)
//	qsrmine -sample -trace                  # per-stage wall time + per-pass counts
//	qsrmine -sample -json-metrics           # machine-readable stage/pass metrics
//	qsrmine -data city.json -timeout 30s    # abort runaway low-support runs
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	qsrmine "repro"
	"repro/internal/buildinfo"
	"repro/internal/mining"
)

// errUsage marks command-line parse failures; the FlagSet has already
// printed the message and usage to stderr, so main only sets the
// conventional exit code 2.
var errUsage = errors.New("bad command line")

func main() {
	// Errors (including bad flag combinations) go to stderr and exit
	// non-zero; stdout carries only mining results.
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) || errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "qsrmine:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qsrmine", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath  = fs.String("data", "", "dataset JSON file (WKT geometries)")
		mutate    = fs.String("mutate", "", `mutation JSON file ({"ops":[...]}) applied to the scene before mining via incremental re-extraction`)
		tablePath = fs.String("table", "", "transaction table CSV file (refID,item,item,...)")
		sample    = fs.Bool("sample", false, "use the built-in Porto Alegre sample scene")
		minsup    = fs.Float64("minsup", 0.5, "relative minimum support in (0, 1]")
		depsFlag  = fs.String("deps", "", "dependency pairs Φ: a:b,c:d,... (item names)")
		rules     = fs.Bool("rules", false, "generate association rules")
		minconf   = fs.Float64("minconf", 0.7, "minimum rule confidence")
		maxShow   = fs.Int("top", 30, "maximum itemsets/rules to print (0 = all)")
		format    = fs.String("format", "text", "output format: text or json")
		profile   = fs.Bool("profile", false, "print the transaction-table profile before mining")
		trace     = fs.Bool("trace", false, "stream per-stage wall time and per-pass counts to stderr")
		jsonMet   = fs.Bool("json-metrics", false, "print stage/pass/counter metrics as JSON after the results")
		timeout   = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		colocate  = fs.Bool("colocate", false, "mine spatial co-location patterns (prevalent feature-type sets under -dist, measured by the participation index) instead of transaction itemsets")
		dist      = fs.Float64("dist", 1.0, "co-location neighborhood distance threshold (-colocate)")
		minPI     = fs.Float64("minpi", 0.3, "minimum participation index in (0, 1] (-colocate)")
		colocMax  = fs.Int("coloc-maxsize", 0, "largest co-location size to mine, 0 = unlimited (-colocate)")
		colocTopK = fs.Int("coloc-topk", 0, "keep only the k highest-PI prevalent co-locations, 0 = all (-colocate)")
		version   = fs.Bool("version", false, "print version and exit")
	)
	// Algorithm and PostFilter implement encoding.TextMarshaler /
	// TextUnmarshaler, so the flag package parses and prints them
	// directly.
	alg := qsrmine.AprioriKCPlus
	fs.TextVar(&alg, "alg", alg, "algorithm: apriori, apriori-kc, apriori-kc+, eclat-kc+")
	postFilter := qsrmine.NoPostFilter
	fs.TextVar(&postFilter, "postfilter", postFilter, "post filter: none, closed, maximal")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *version {
		fmt.Fprintln(stdout, "qsrmine", buildinfo.String())
		return nil
	}

	deps, err := parseDeps(*depsFlag)
	if err != nil {
		return err
	}
	cfg := qsrmine.Config{
		Algorithm:     alg,
		MinSupport:    *minsup,
		Dependencies:  deps,
		GenerateRules: *rules,
		MinConfidence: *minconf,
		PostFilter:    postFilter,
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var (
		tr        *qsrmine.Trace
		collector *qsrmine.TraceCollector
	)
	if *trace || *jsonMet {
		var sinks []qsrmine.TraceSink
		if *trace {
			sinks = append(sinks, qsrmine.NewTextTraceSink(stderr))
		}
		if *jsonMet {
			collector = qsrmine.NewTraceCollector()
			sinks = append(sinks, collector)
		}
		tr = qsrmine.NewTrace(qsrmine.MultiTraceSink(sinks...))
		ctx = qsrmine.WithTrace(ctx, tr)
	}

	var out *qsrmine.Outcome
	switch {
	case *sample, *dataPath != "":
		var ds *qsrmine.Dataset
		if *sample {
			ds = qsrmine.PortoAlegreScene()
		} else {
			if ds, err = qsrmine.LoadDataset(*dataPath); err != nil {
				return err
			}
		}
		if *colocate {
			if *mutate != "" {
				return fmt.Errorf("-colocate and -mutate are mutually exclusive")
			}
			ccfg := qsrmine.ColocationConfig{
				Distance: *dist,
				MinPI:    *minPI,
				MaxSize:  *colocMax,
				TopK:     *colocTopK,
			}
			if err := runColocate(ctx, stdout, stderr, ds, ccfg, *format, *maxShow, *trace, collector, tr); err != nil {
				return err
			}
			return nil
		}
		if *mutate != "" {
			out, err = runMutated(ctx, ds, *mutate, cfg)
		} else {
			out, err = qsrmine.RunContext(ctx, ds, cfg)
		}
	case *tablePath != "":
		if *mutate != "" {
			return fmt.Errorf("-mutate needs a geometric scene (-data or -sample), not -table")
		}
		if *colocate {
			return fmt.Errorf("-colocate needs a geometric scene (-data or -sample), not -table")
		}
		table, loadErr := qsrmine.LoadTable(*tablePath)
		if loadErr != nil {
			return loadErr
		}
		out, err = qsrmine.RunTableContext(ctx, table, cfg)
	default:
		return fmt.Errorf("provide -data FILE, -table FILE, or -sample")
	}
	if err != nil {
		return err
	}
	if *trace {
		fmt.Fprint(stderr, qsrmine.FormatTraceCounters(tr.Counters()))
	}
	if *profile && *format != "json" {
		fmt.Fprintln(stdout, "-- table profile --")
		fmt.Fprint(stdout, qsrmine.ProfileTable(out.Table).Format())
		fmt.Fprintln(stdout)
	}
	if *format == "json" {
		if err := writeJSON(stdout, alg.String(), out, *rules); err != nil {
			return err
		}
		return writeMetrics(stdout, collector, tr)
	}
	if *format != "text" {
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}

	res := out.Result
	fmt.Fprintf(stdout, "algorithm:            %s\n", alg)
	fmt.Fprintf(stdout, "transactions:         %d\n", res.NumTransactions)
	fmt.Fprintf(stdout, "minimum support:      %.1f%% (count %d)\n", *minsup*100, res.MinSupportCount)
	fmt.Fprintf(stdout, "frequent itemsets:    %d (size >= 2: %d, largest %d)\n",
		len(res.Frequent), res.NumFrequent(2), res.MaxLen())
	fmt.Fprintf(stdout, "pruned dependencies:  %d\n", res.PrunedDeps)
	fmt.Fprintf(stdout, "pruned same-feature:  %d\n", res.PrunedSameFeature)
	fmt.Fprintf(stdout, "mining time:          %v\n", res.Duration)
	fmt.Fprintln(stdout)

	shown := 0
	for _, f := range res.Frequent {
		if len(f.Items) < 2 {
			continue
		}
		if *maxShow > 0 && shown >= *maxShow {
			fmt.Fprintf(stdout, "... (%d more)\n", res.NumFrequent(2)-shown)
			break
		}
		fmt.Fprintf(stdout, "  %-70s support %d\n", f.Items.Format(out.DB.Dict), f.Support)
		shown++
	}

	if *rules {
		fmt.Fprintf(stdout, "\nassociation rules (confidence >= %.0f%%): %d\n", *minconf*100, len(out.Rules))
		for i, r := range out.Rules {
			if *maxShow > 0 && i >= *maxShow {
				fmt.Fprintf(stdout, "... (%d more)\n", len(out.Rules)-i)
				break
			}
			fmt.Fprintf(stdout, "  %-70s conf %.2f lift %.2f sup %.2f\n",
				r.Format(out.DB.Dict), r.Confidence, r.Lift, r.Support)
		}
	}
	return writeMetrics(stdout, collector, tr)
}

// runColocate is the -colocate mode: co-location mining over the
// scene's layers, with the same text/json output split and metrics
// plumbing as transaction mining.
func runColocate(ctx context.Context, stdout, stderr io.Writer, ds *qsrmine.Dataset, cfg qsrmine.ColocationConfig, format string, maxShow int, trace bool, collector *qsrmine.TraceCollector, tr *qsrmine.Trace) error {
	res, err := qsrmine.ColocateContext(ctx, ds, cfg)
	if err != nil {
		return err
	}
	if trace {
		fmt.Fprint(stderr, qsrmine.FormatTraceCounters(tr.Counters()))
	}
	switch format {
	case "json":
		if err := writeColocateJSON(stdout, res); err != nil {
			return err
		}
		return writeMetrics(stdout, collector, tr)
	case "text":
	default:
		return fmt.Errorf("unknown format %q (want text or json)", format)
	}
	fmt.Fprintf(stdout, "co-location mining:    distance %v, min PI %v\n", res.Distance, res.MinPI)
	fmt.Fprintf(stdout, "feature types:         %d (%d instances)\n", len(res.Types), res.Instances)
	fmt.Fprintf(stdout, "neighbor pairs:        %d candidates -> %d within distance\n", res.CandidatePairs, res.RefinedPairs)
	fmt.Fprintf(stdout, "prevalent patterns:    %d (of %d candidate sets)\n", len(res.Prevalent), res.Candidates)
	fmt.Fprintf(stdout, "mining time:           %v\n", res.Duration)
	fmt.Fprintln(stdout)
	for i, p := range res.Prevalent {
		if maxShow > 0 && i >= maxShow {
			fmt.Fprintf(stdout, "... (%d more)\n", len(res.Prevalent)-i)
			break
		}
		fmt.Fprintf(stdout, "  {%s}%*s PI %.3f  rows %d\n",
			strings.Join(p.Types, ", "), max(1, 50-len(strings.Join(p.Types, ", "))), "", p.PI, p.Rows)
	}
	return writeMetrics(stdout, collector, tr)
}

// colocJSONOutput is the -colocate machine-readable schema; its
// prevalent entries use the same field names as the /v1/colocate wire
// form, so CLI and daemon output compare directly.
type colocJSONOutput struct {
	Distance       float64         `json:"distance"`
	MinPI          float64         `json:"minPI"`
	Types          []string        `json:"types"`
	Instances      int             `json:"instances"`
	CandidatePairs int64           `json:"candidatePairs"`
	RefinedPairs   int64           `json:"refinedPairs"`
	DurationMicros int64           `json:"miningMicros"`
	Prevalent      []colocJSONItem `json:"prevalent"`
}

type colocJSONItem struct {
	Types              []string `json:"types"`
	ParticipationIndex float64  `json:"participationIndex"`
	RowInstances       int      `json:"rowInstances"`
}

func writeColocateJSON(w io.Writer, res *qsrmine.ColocationResult) error {
	jo := colocJSONOutput{
		Distance:       res.Distance,
		MinPI:          res.MinPI,
		Types:          res.Types,
		Instances:      res.Instances,
		CandidatePairs: res.CandidatePairs,
		RefinedPairs:   res.RefinedPairs,
		DurationMicros: res.Duration.Microseconds(),
		Prevalent:      make([]colocJSONItem, 0, len(res.Prevalent)),
	}
	for _, p := range res.Prevalent {
		jo.Prevalent = append(jo.Prevalent, colocJSONItem{
			Types:              p.Types,
			ParticipationIndex: p.PI,
			RowInstances:       p.Rows,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jo)
}

// runMutated applies the -mutate file to the scene and mines the
// successor through the incremental path: a full extraction of the
// original dataset builds an ExtractState, Apply re-extracts only the
// rows whose dirty region the edits touch (visible as delta.* counters
// under -trace / -json-metrics), and mining runs on the patched state,
// whose table the outcome carries for -profile.
func runMutated(ctx context.Context, ds *qsrmine.Dataset, path string, cfg qsrmine.Config) (*qsrmine.Outcome, error) {
	m, err := qsrmine.LoadMutation(path)
	if err != nil {
		return nil, err
	}
	st, err := qsrmine.NewExtractStateContext(ctx, ds, cfg.ExtractionOptions())
	if err != nil {
		return nil, err
	}
	nd, cs, err := ds.ApplyOps(m.Ops)
	if err != nil {
		return nil, err
	}
	if _, err := st.Apply(ctx, nd, cs); err != nil {
		return nil, err
	}
	out, err := qsrmine.RunStateContext(ctx, st, cfg)
	if err != nil {
		return nil, err
	}
	out.Table = st.Table()
	return out, nil
}

// writeMetrics prints the collected stage/pass/counter metrics as one
// JSON document; a nil collector (no -json-metrics) is a no-op.
func writeMetrics(w io.Writer, collector *qsrmine.TraceCollector, tr *qsrmine.Trace) error {
	if collector == nil {
		return nil
	}
	return collector.WriteJSON(w, tr)
}

// parseDeps parses "a:b,c:d" into Φ pairs (":" separates the pair so
// that "attr=value" item names stay unambiguous).
func parseDeps(s string) ([]mining.Pair, error) {
	if s == "" {
		return nil, nil
	}
	var deps []mining.Pair
	for _, part := range strings.Split(s, ",") {
		ab := strings.SplitN(part, ":", 2)
		if len(ab) != 2 || ab[0] == "" || ab[1] == "" {
			return nil, fmt.Errorf("bad dependency %q (want itemA:itemB)", part)
		}
		deps = append(deps, mining.Pair{A: ab[0], B: ab[1]})
	}
	return deps, nil
}

// jsonOutput is the machine-readable result schema.
type jsonOutput struct {
	Algorithm         string        `json:"algorithm"`
	Transactions      int           `json:"transactions"`
	MinSupportCount   int           `json:"minSupportCount"`
	PrunedDeps        int           `json:"prunedDependencies"`
	PrunedSameFeature int           `json:"prunedSameFeature"`
	DurationMicros    int64         `json:"miningMicros"`
	Frequent          []jsonItemset `json:"frequent"`
	Rules             []jsonRule    `json:"rules,omitempty"`
}

type jsonItemset struct {
	Items   []string `json:"items"`
	Support int      `json:"support"`
}

type jsonRule struct {
	Antecedent []string `json:"antecedent"`
	Consequent []string `json:"consequent"`
	Support    float64  `json:"support"`
	Confidence float64  `json:"confidence"`
	Lift       float64  `json:"lift"`
}

// writeJSON emits the outcome as one JSON document.
func writeJSON(w io.Writer, alg string, out *qsrmine.Outcome, withRules bool) error {
	res := out.Result
	jo := jsonOutput{
		Algorithm:         alg,
		Transactions:      res.NumTransactions,
		MinSupportCount:   res.MinSupportCount,
		PrunedDeps:        res.PrunedDeps,
		PrunedSameFeature: res.PrunedSameFeature,
		DurationMicros:    res.Duration.Microseconds(),
	}
	for _, f := range res.Frequent {
		if len(f.Items) < 2 {
			continue
		}
		jo.Frequent = append(jo.Frequent, jsonItemset{Items: f.Items.Names(out.DB.Dict), Support: f.Support})
	}
	if withRules {
		for _, r := range out.Rules {
			jo.Rules = append(jo.Rules, jsonRule{
				Antecedent: r.Antecedent.Names(out.DB.Dict),
				Consequent: r.Consequent.Names(out.DB.Dict),
				Support:    r.Support,
				Confidence: r.Confidence,
				Lift:       r.Lift,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jo)
}
