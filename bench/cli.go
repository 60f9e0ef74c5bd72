package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/colocation"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/qsr"
	"repro/internal/transact"
)

// sceneConfig is the cli-scene pipeline: topological and distance
// predicates, Apriori-KC+ at 20 % support, no rules.
func sceneConfig() core.Config {
	return core.Config{
		Extraction: transact.Options{
			Topological: true,
			Distance:    true,
			Thresholds:  qsr.DefaultThresholds(10),
			Index:       transact.RTreeIndex,
		},
		Algorithm:  core.AlgAprioriKCPlus,
		MinSupport: 0.2,
	}
}

// setupScene generates four scenes from the seed, serialises them to the
// JSON a qsrmine -data run reads, mines each once for the expected
// answer, and checks that prepared and unprepared extraction agree.
func setupScene(ctx context.Context, cfg config) (*instance, error) {
	const scenes = 4
	pc := sceneConfig()
	bodies := make([][]byte, scenes)
	want := make([]string, scenes)
	parsed := make([]*dataset.Dataset, scenes)
	for k := range bodies {
		d, err := datagen.GenerateScene(datagen.DefaultScene(cfg.size.sceneGrid, cfg.size.sceneGrid, cfg.seed*scenes+int64(k)))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			return nil, err
		}
		bodies[k] = buf.Bytes()
		if parsed[k], err = dataset.ReadJSON(bytes.NewReader(bodies[k])); err != nil {
			return nil, err
		}
		out, err := core.RunContext(ctx, parsed[k], pc)
		if err != nil {
			return nil, err
		}
		want[k] = anchor(cfg, outcomePrint(out))
		prepared, err := transact.ExtractContext(ctx, parsed[k], pc.Extraction)
		if err != nil {
			return nil, err
		}
		raw := pc.Extraction
		raw.NoPrepare = true
		unprepared, err := transact.ExtractContext(ctx, parsed[k], raw)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(prepared, unprepared) {
			return nil, fmt.Errorf("scene %d: prepared and unprepared extraction differ", k)
		}
	}

	next := 0
	do := func(ctx context.Context, _ int, ot *stepTrace) (stepResult, error) {
		k := next % scenes
		next++
		r := stepResult{kind: "op", start: time.Now()}
		var out *core.Outcome
		var err error
		if ot == nil {
			var d *dataset.Dataset
			if d, err = dataset.ReadJSON(bytes.NewReader(bodies[k])); err == nil {
				out, err = core.RunContext(ctx, d, pc)
			}
		} else {
			out, err = sceneTraced(ctx, ot, bodies[k], pc)
		}
		r.lat = time.Since(r.start)
		r.check = func() error { return expect(outcomePrint(out), want[k]) }
		return r, err
	}
	return &instance{
		do: do,
		afterTrace: func(ctx context.Context, v map[string]float64) error {
			return extractionShares(ctx, v, parsed, pc.Extraction)
		},
	}, nil
}

// sceneTraced is core.RunContext with every stage called separately
// under its own span.
func sceneTraced(ctx context.Context, ot *stepTrace, body []byte, cfg core.Config) (*core.Outcome, error) {
	octr := obs.New(nil)
	ctx = obs.WithTrace(ctx, octr)
	defer func() { addCounters(ot, octr) }()
	var d *dataset.Dataset
	var err error
	ot.region("dataset.parse", func() { d, err = dataset.ReadJSON(bytes.NewReader(body)) })
	if err != nil {
		return nil, err
	}
	var table *dataset.Table
	ot.region("transact.extract", func() { table, err = transact.ExtractContext(ctx, d, cfg.Extraction) })
	if err != nil {
		return nil, err
	}
	return mineTraced(ctx, ot, table, cfg)
}

// mineTraced is core.RunTableContext with every stage called separately
// under its own span.
func mineTraced(ctx context.Context, ot *stepTrace, table *dataset.Table, cfg core.Config) (*core.Outcome, error) {
	mcfg, err := core.EffectiveMiningConfig(cfg)
	if err != nil {
		return nil, err
	}
	out := &core.Outcome{Table: table}
	ot.region("itemset.intern", func() { out.DB = itemset.NewDB(table) })
	ot.region("mining.mine", func() {
		switch cfg.Algorithm {
		case core.AlgAprioriKCPlus:
			out.Result, err = mining.MineContext(ctx, out.DB, mcfg)
		case core.AlgEclatKCPlus:
			out.Result, err = mining.EclatContext(ctx, out.DB, mcfg)
		default:
			err = fmt.Errorf("traced mining of %v is not wired", cfg.Algorithm)
		}
	})
	if err != nil {
		return nil, err
	}
	if cfg.GenerateRules {
		ot.region("mining.rules", func() { out.Rules = mining.GenerateRules(out.Result, cfg.MinConfidence) })
		ot.count("bench.rules", int64(len(out.Rules)))
	}
	return out, nil
}

// addCounters folds an obs trace's counters into the op's.
func addCounters(ot *stepTrace, octr *obs.Trace) {
	for name, v := range octr.Counters() {
		ot.count(name, v)
	}
}

// tableConfig is the cli-table pipeline: paper Dataset 1 with its Φ,
// 1 % support, rules at 70 % confidence.
func tableConfig(alg core.Algorithm) core.Config {
	deps := make([]mining.Pair, len(datagen.Dataset1Dependencies))
	for i, p := range datagen.Dataset1Dependencies {
		deps[i] = mining.Pair{A: p.A, B: p.B}
	}
	return core.Config{
		Algorithm:     alg,
		MinSupport:    0.01,
		Dependencies:  deps,
		GenerateRules: true,
		MinConfidence: 0.7,
	}
}

// setupTable generates paper Dataset 1, serialises it to the CSV a
// qsrmine -table run reads, and checks that Apriori-KC+ and Eclat-KC+
// agree on its itemsets and rules.
func setupTable(ctx context.Context, cfg config) (*instance, error) {
	t, err := datagen.PaperDataset1(cfg.seed, cfg.size.tableRows)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := t.WriteTableCSV(&buf); err != nil {
		return nil, err
	}
	body := buf.Bytes()
	algs := []core.Algorithm{core.AlgAprioriKCPlus, core.AlgEclatKCPlus}
	var want string
	for _, alg := range algs {
		parsed, err := dataset.ReadTableCSV(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		out, err := core.RunTableContext(ctx, parsed, tableConfig(alg))
		if err != nil {
			return nil, err
		}
		got := outcomePrint(out)
		if want != "" && got != want {
			return nil, fmt.Errorf("apriori-kc+ and eclat-kc+ disagree: %s vs %s", want, got)
		}
		want = got
	}
	want = anchor(cfg, want)

	next := 0
	do := func(ctx context.Context, _ int, ot *stepTrace) (stepResult, error) {
		pc := tableConfig(algs[next%len(algs)])
		next++
		r := stepResult{kind: "op", start: time.Now()}
		var out *core.Outcome
		var err error
		if ot == nil {
			var table *dataset.Table
			if table, err = dataset.ReadTableCSV(bytes.NewReader(body)); err == nil {
				out, err = core.RunTableContext(ctx, table, pc)
			}
		} else {
			octr := obs.New(nil)
			tctx := obs.WithTrace(ctx, octr)
			var table *dataset.Table
			ot.region("dataset.parse", func() { table, err = dataset.ReadTableCSV(bytes.NewReader(body)) })
			if err == nil {
				out, err = mineTraced(tctx, ot, table, pc)
			}
			addCounters(ot, octr)
		}
		r.lat = time.Since(r.start)
		r.check = func() error { return expect(outcomePrint(out), want) }
		return r, err
	}
	return &instance{do: do}, nil
}

// colocationScene is the cli-colocate input: six point types, four
// planted sets of two or three types, noise of every type.
func colocationScene(cfg config) datagen.ColocationSceneConfig {
	return datagen.ColocationSceneConfig{
		Seed:          cfg.seed,
		Types:         []string{"atm", "busStop", "cafe", "kiosk", "pharmacy", "school"},
		Extent:        60,
		Clusters:      cfg.size.colocClusters,
		ClusterSpread: 0.5,
		Planted: [][]string{
			{"atm", "busStop"}, {"busStop", "cafe", "kiosk"},
			{"pharmacy", "school"}, {"cafe", "kiosk", "pharmacy"},
		},
		Noise: cfg.size.colocNoise,
	}
}

// colocConfig is the co-location mining configuration of cli-colocate
// and of serve-mix's colocate op.
var colocConfig = colocation.Config{Distance: 1, MinPI: 0.2}

// setupColocate generates the planted scene, serialises it, and takes
// the expected answer from the brute-force oracle.
func setupColocate(ctx context.Context, cfg config) (*instance, error) {
	d, err := datagen.GenerateColocationScene(colocationScene(cfg))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		return nil, err
	}
	body := buf.Bytes()
	parsed, err := dataset.ReadJSON(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	oracle, err := colocation.MineBruteForce(parsed, colocConfig)
	if err != nil {
		return nil, err
	}
	want := anchor(cfg, patternPrint(oracle.Prevalent))

	do := func(ctx context.Context, _ int, ot *stepTrace) (stepResult, error) {
		r := stepResult{kind: "op", start: time.Now()}
		var res *colocation.Result
		var err error
		if ot == nil {
			var d *dataset.Dataset
			if d, err = dataset.ReadJSON(bytes.NewReader(body)); err == nil {
				res, err = colocation.MineContext(ctx, d, colocConfig)
			}
		} else {
			res, err = colocateTraced(ctx, ot, body)
		}
		r.lat = time.Since(r.start)
		r.check = func() error { return expect(patternPrint(res.Prevalent), want) }
		return r, err
	}
	return &instance{do: do}, nil
}

// colocateTraced parses and mines under spans; the engine's own
// neighbour and walk stages become child spans of the mining span.
func colocateTraced(ctx context.Context, ot *stepTrace, body []byte) (*colocation.Result, error) {
	var d *dataset.Dataset
	var err error
	ot.region("dataset.parse", func() { d, err = dataset.ReadJSON(bytes.NewReader(body)) })
	if err != nil {
		return nil, err
	}
	stages := obs.NewCollector()
	octr := obs.New(stages)
	var res *colocation.Result
	mineSpan := ot.region("colocation.mine", func() {
		res, err = colocation.MineContext(obs.WithTrace(ctx, octr), d, colocConfig)
	})
	for _, s := range stages.Stages() {
		if name, ok := strings.CutPrefix(s.Name, "colocate."); ok {
			ot.add(mineSpan, "colocation."+name, s.Start, s.Start.Add(s.Duration))
		}
	}
	addCounters(ot, octr)
	return res, err
}

// anchor returns the expected answer an op is checked against; a run
// with corruptAnchor set expects an answer no op can give.
func anchor(cfg config, fp string) string {
	if cfg.corruptAnchor {
		return "corrupted:" + fp
	}
	return fp
}

// expect compares an op's answer with the expected one.
func expect(got, want string) error {
	if got != want {
		return fmt.Errorf("answer %s, want %s", got, want)
	}
	return nil
}

// digestLines hashes an order-independent set of lines into a short
// fingerprint that also records how many lines there were.
func digestLines(lines []string) string {
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%d/%s", len(lines), hex.EncodeToString(sum[:8]))
}

// sortedJoin joins names in sorted order, so that a fingerprint does not
// depend on the dictionary order items were interned in.
func sortedJoin(names []string) string {
	names = append([]string(nil), names...)
	sort.Strings(names)
	return strings.Join(names, ",")
}

// itemsetLine renders one frequent itemset.
func itemsetLine(names []string, support int) string {
	return "F " + sortedJoin(names) + " " + strconv.Itoa(support)
}

// outcomePrint fingerprints a pipeline outcome's itemsets and rules.
func outcomePrint(out *core.Outcome) string {
	if out == nil || out.Result == nil {
		return "none"
	}
	lines := make([]string, 0, len(out.Result.Frequent)+len(out.Rules))
	for _, f := range out.Result.Frequent {
		lines = append(lines, itemsetLine(f.Items.Names(out.DB.Dict), f.Support))
	}
	for _, r := range out.Rules {
		lines = append(lines, fmt.Sprintf("R %s -> %s %d %s",
			sortedJoin(r.Antecedent.Names(out.DB.Dict)), sortedJoin(r.Consequent.Names(out.DB.Dict)),
			r.SupportCount, strconv.FormatFloat(r.Confidence, 'g', -1, 64)))
	}
	return digestLines(lines)
}

// patternPrint fingerprints a set of prevalent co-location patterns.
func patternPrint(ps []colocation.Pattern) string {
	lines := make([]string, len(ps))
	for i, p := range ps {
		lines[i] = fmt.Sprintf("P %s %s %d", strings.Join(p.Types, ","), strconv.FormatFloat(p.PI, 'g', -1, 64), p.Rows)
	}
	return digestLines(lines)
}
