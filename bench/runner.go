package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// size holds the input sizes of every workload. full is what the
// benchmark measures; the tests run the same code on toy.
type size struct {
	sceneGrid     int // cli-scene: districts per side of each scene
	tableRows     int // cli-table: rows of paper Dataset 1
	colocClusters int // cli-colocate: planted sites
	colocNoise    int // cli-colocate: noise points per type
	serveGrid     int // serve-mix: districts per side of each client's scene
}

var (
	full = size{sceneGrid: 28, tableRows: 20000, colocClusters: 200, colocNoise: 300, serveGrid: 20}
	toy  = size{sceneGrid: 6, tableRows: 600, colocClusters: 12, colocNoise: 15, serveGrid: 5}
)

// config is one run's settings.
type config struct {
	seed   int64
	window time.Duration
	trace  bool
	size   size
	start  time.Time // set-up is timed from here
	out    string    // directory for traced spans ("" = none)
	// corruptAnchor replaces every expected answer with a wrong one, so
	// that every op must count as failed (the tests use it).
	corruptAnchor bool
}

// A step is what an instance runs at a time: a whole op for the CLI
// workloads, one request of a session for serve-mix.

// stepResult is one step's outcome: its kind, its timed region, and the
// verification the runner performs after the clock has stopped.
type stepResult struct {
	kind  string
	start time.Time
	lat   time.Duration
	check func() error
}

// instance is a set-up workload, ready to run ops.
type instance struct {
	// do runs client c's next step. ot is nil for an untraced step.
	do func(ctx context.Context, c int, ot *stepTrace) (stepResult, error)
	// windowStart and windowEnd, when set, bracket the measured ops;
	// windowEnd gets the number of steps of each kind in between and
	// reports any disagreement with what the program counted.
	windowStart func(ctx context.Context) error
	windowEnd   func(ctx context.Context, kinds map[string]int) error
	// afterTrace, when set, runs once after a traced window and adds
	// per-layer values that need work outside the ops.
	afterTrace func(ctx context.Context, values map[string]float64) error
	// close, when set, releases what set-up started.
	close func()
}

// workload is one benchmark workload.
type workload struct {
	name    string
	why     string
	clients int
	// steps is how many steps make up one op: 1 for the CLI workloads,
	// a whole session of requests for serve-mix.
	steps  int
	warmup int // ops each client runs before the window
	setup  func(ctx context.Context, cfg config) (*instance, error)
}

var workloads = []workload{
	{
		name: "cli-scene", clients: 1, steps: 1, warmup: 8, setup: setupScene,
		why: "qsrmine -data: parse plus topological and distance extraction of a 784-district scene carry every extraction change",
	},
	{
		name: "cli-table", clients: 1, steps: 1, warmup: 10, setup: setupTable,
		why: "qsrmine -table: parse, interning, mining passes and rules on 20,000 rows, with no extraction to bypass it",
	},
	{
		name: "cli-colocate", clients: 1, steps: 1, warmup: 40, setup: setupColocate,
		why: "qsrmine -colocate: neighbour search and the prevalence walk over 2,300 planted points",
	},
	{
		name: "serve-mix", clients: 2, steps: len(sessionSteps), warmup: 1, setup: setupServe,
		why: "qsrmined: two clients upload, mine cold and cached, patch and delta-mine, colocate and delete over HTTP",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stepRecord is one step as the runner saw it.
type stepRecord struct {
	kind   string
	lat    time.Duration
	failed bool
}

// sample is one timed event: when it ended and how long it took.
type sample struct {
	end time.Time
	dur time.Duration
}

// stretch is what one stretch of ops produced.
type stretch struct {
	steps []stepRecord
	ops   [][]sample // per client, the ops whose steps all succeeded
	refs  []sample   // every reference run, by end time
}

// refNeighbours is how many reference runs, nearest in time, make up
// the reference time an op is divided by. Their median tracks the
// machine's speed at the moment of the op while ignoring the jitter of
// single runs and whether another client was busy during one.
const refNeighbours = 9

// latencies returns the sorted op latencies in ms.
func (s *stretch) latencies() []float64 {
	var out []float64
	for _, ops := range s.ops {
		for _, o := range ops {
			out = append(out, ms(o.dur))
		}
	}
	sort.Float64s(out)
	return out
}

// relative returns every op's latency in reference units, sorted, and
// the throughput in ops per reference time and per second of op time,
// summed over the clients.
func (s *stretch) relative() (ratios []float64, perRef, perSecond float64) {
	refs := append([]sample(nil), s.refs...)
	sort.Slice(refs, func(i, j int) bool { return refs[i].end.Before(refs[j].end) })
	window := make([]float64, 0, refNeighbours)
	refAt := func(t time.Time) float64 {
		i := sort.Search(len(refs), func(i int) bool { return !refs[i].end.Before(t) })
		lo := max(0, min(i-refNeighbours/2, len(refs)-refNeighbours))
		window = window[:0]
		for _, r := range refs[lo:min(len(refs), lo+refNeighbours)] {
			window = append(window, ms(r.dur))
		}
		return median(window)
	}
	for _, ops := range s.ops {
		var sumRatio, sumSeconds float64
		for _, o := range ops {
			r := ratio(ms(o.dur), refAt(o.end))
			ratios = append(ratios, r)
			sumRatio += r
			sumSeconds += o.dur.Seconds()
		}
		perRef += ratio(float64(len(ops)), sumRatio)
		perSecond += ratio(float64(len(ops)), sumSeconds)
	}
	sort.Float64s(ratios)
	return ratios, perRef, perSecond
}

// runStats is what one run measured, before it is cut into metrics.
type runStats struct {
	setup      time.Duration // from cfg.start to the end of the warm-up
	warmup     stretch
	untraced   stretch
	traced     stretch
	allocBytes uint64 // heap bytes allocated during the untraced window
}

// runWorkload sets w up, warms it up and measures it: an untraced window
// of cfg.window, or in a traced run an untraced half followed by a traced
// half.
func runWorkload(ctx context.Context, w workload, cfg config) (partOutput, error) {
	var st runStats
	var fail failureLog
	inst, err := w.setup(ctx, cfg)
	if err != nil {
		return partOutput{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if inst.close != nil {
		defer inst.close()
	}
	st.warmup = runOps(ctx, inst, w, w.warmup, 0, nil, &fail)
	st.setup = time.Since(cfg.start)
	runtime.GC()

	if inst.windowStart != nil {
		if err := inst.windowStart(ctx); err != nil {
			return partOutput{}, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	untracedWindow := cfg.window
	if cfg.trace {
		untracedWindow = cfg.window / 2
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st.untraced = runOps(ctx, inst, w, 0, untracedWindow, nil, &fail)
	runtime.ReadMemStats(&ms1)
	st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		st.traced = runOps(ctx, inst, w, 0, cfg.window-untracedWindow, tr, &fail)
	}
	measured := append(append([]stepRecord(nil), st.untraced.steps...), st.traced.steps...)
	correct := true
	if inst.windowEnd != nil {
		kinds := map[string]int{}
		for _, r := range measured {
			kinds[r.kind]++
		}
		if err := inst.windowEnd(ctx, kinds); err != nil {
			fail.add(err)
			correct = false
		}
	}

	values := map[string]float64{}
	endToEndValues(values, &st)
	if cfg.trace {
		layerValues(values, tr, &st)
		if inst.afterTrace != nil {
			if err := inst.afterTrace(ctx, values); err != nil {
				fail.add(err)
				correct = false
			}
		}
		if cfg.out != "" {
			path := fmt.Sprintf("%s/spans-%s-seed%d-%d.jsonl", cfg.out, w.name, cfg.seed, os.Getpid())
			if err := tr.writeSpans(path); err != nil {
				return partOutput{}, err
			}
		}
	}

	var res result
	for _, r := range append(measured, st.warmup.steps...) {
		res.Attempted++
		if r.failed {
			res.Failed++
		}
	}
	res.Correct = correct && res.Failed == 0 && res.Attempted > 0
	values["fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	if cfg.trace {
		res.Metrics = pick(perLayer, values)
	} else {
		res.Metrics = pick(endToEnd, values)
	}
	return partOutput{Result: res, Values: values, Failures: fail.first()}, nil
}

// runOps drives w's clients closed-loop, in rounds: in each round every
// client runs one op and verifies it, and once all have finished the
// reference task runs alone on every core. With quota > 0 there are
// quota rounds; otherwise rounds start until the window has passed, and
// the round under way when it passes is finished.
func runOps(ctx context.Context, inst *instance, w workload, quota int, window time.Duration, tr *tracer, fail *failureLog) stretch {
	deadline := time.Now().Add(window)
	out := stretch{ops: make([][]sample, w.clients)}
	steps := make([][]stepRecord, w.clients)
	for i := 0; quota > 0 && i < quota || quota == 0 && time.Now().Before(deadline); i++ {
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var lat time.Duration
				ok := true
				for j := 0; j < w.steps; j++ {
					r := runStep(ctx, inst, c, tr, fail)
					steps[c] = append(steps[c], r)
					lat += r.lat
					ok = ok && !r.failed
				}
				if ok {
					out.ops[c] = append(out.ops[c], sample{end: time.Now(), dur: lat})
				}
				if tr != nil {
					tr.endOp()
				}
			}(c)
		}
		wg.Wait()
		ref := reference(runtime.GOMAXPROCS(0))
		out.refs = append(out.refs, sample{end: time.Now(), dur: ref})
	}
	for _, s := range steps {
		out.steps = append(out.steps, s...)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runStep runs and verifies one step.
func runStep(ctx context.Context, inst *instance, c int, tr *tracer, fail *failureLog) stepRecord {
	var ot *stepTrace
	if tr != nil {
		ot = tr.newStep()
	}
	r, err := inst.do(ctx, c, ot)
	if err == nil && r.check != nil {
		err = r.check()
	}
	if ot != nil {
		tr.commit(ot, r.kind, r.start, r.lat)
	}
	if err != nil {
		fail.add(fmt.Errorf("%s: %w", r.kind, err))
	}
	return stepRecord{kind: r.kind, lat: r.lat, failed: err != nil}
}

// failureLog keeps the first few failure messages.
type failureLog struct {
	mu   sync.Mutex
	msgs []string
}

func (f *failureLog) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, err.Error())
	}
}

func (f *failureLog) first() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.msgs...)
}

// kindLatencies returns the sorted latencies in ms of the successful
// steps of one kind.
func kindLatencies(steps []stepRecord, kind string) []float64 {
	var out []float64
	for _, r := range steps {
		if !r.failed && r.kind == kind {
			out = append(out, ms(r.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// endToEndValues computes the end-to-end metrics from the untraced ops,
// the same timings in plain milliseconds, and the median latency of each
// serve-mix request kind.
func endToEndValues(v map[string]float64, st *runStats) {
	u := &st.untraced
	ratios, perRef, perSecond := u.relative()
	lat := u.latencies()
	v["throughput_ops_ref"] = perRef
	v["latency_p50_ref"] = quantile(ratios, 0.5)
	v["latency_p90_ref"] = quantile(ratios, 0.9)
	v["throughput_ops_s"] = perSecond
	v["latency_p50_ms"] = quantile(lat, 0.5)
	v["latency_p90_ms"] = quantile(lat, 0.9)
	refs := make([]float64, len(u.refs))
	for i, r := range u.refs {
		refs[i] = ms(r.dur)
	}
	v["reference_ms"] = median(refs)
	v["samples"] = float64(len(lat))
	v["setup_s"] = st.setup.Seconds()
	v["rss_peak_mb"] = peakRSSMB()
	v["alloc_mb_per_op"] = ratio(float64(st.allocBytes)/1e6, float64(len(lat)))
	for _, k := range serveKinds {
		if l := kindLatencies(u.steps, k); len(l) > 0 {
			v[k+"_p50_ms"] = quantile(l, 0.5)
		}
	}
}

// layerValues computes the per-layer metrics from a traced window.
func layerValues(v map[string]float64, tr *tracer, st *runStats) {
	all := tr.all
	c := func(name string) float64 { return float64(tr.counters[name]) }
	n := float64(all.ops)
	perOp := func(nanos int64) float64 { return ratio(float64(nanos)/1e6, n) }

	v["bench.traced_op_ms"] = perOp(all.opNanos)
	v["bench.layer_sum_ms"] = perOp(all.opNanos - all.rootSelf)
	traced, _, _ := st.traced.relative()
	v["bench.trace_overhead_pct"] = 100 * (ratio(quantile(traced, 0.5), v["latency_p50_ref"]) - 1)

	for metricName, spanName := range map[string]string{
		"dataset.parse_ms":        "dataset.parse",
		"transact.extract_ms":     "transact.extract",
		"itemset.intern_ms":       "itemset.intern",
		"mining.mine_ms":          "mining.mine",
		"mining.rules_ms":         "mining.rules",
		"colocation.neighbors_ms": "colocation.neighbors",
		"colocation.walk_ms":      "colocation.walk",
		"colocation.other_ms":     "colocation.mine",
	} {
		v[metricName] = perOp(all.self[spanName])
	}
	v["transact.candidates_per_row"] = ratio(c("extract.candidates"), c("extract.rows"))
	v["transact.relates_per_row"] = ratio(c("extract.relates"), c("extract.rows"))
	v["transact.refine_skip_ratio"] = ratio(c("extract.refine.skipped"), c("extract.relates")+c("extract.refine.skipped"))
	v["transact.items_per_row"] = ratio(c("extract.items"), c("extract.rows"))
	v["mining.candidates"] = ratio(c("mine.candidates"), n)
	v["mining.frequent_per_candidate"] = ratio(c("mine.frequent"), c("mine.candidates"))
	v["mining.rules"] = ratio(c("bench.rules"), n)
	v["colocation.refined_per_candidate"] = ratio(c("coloc.pairs.refined"), c("coloc.pairs.candidates"))
	v["colocation.star_pruned"] = ratio(c("coloc.star.pruned"), n)
	v["colocation.rows_peak"] = ratio(c("coloc.rows.peak"), n)
	v["transact.delta_dirty_ratio"] = ratio(c("delta.rows.dirty"), c("delta.rows.total"))
	v["server.cache_hit_ratio"] = ratio(c("server.cache.hits"), c("server.cache.hits")+c("server.cache.misses"))

	// Per request kind (serve-mix): the client's round trip and decode, the
	// server's handler time from its access log, the pipeline stages
	// inside the handler, and the handler's remainder (request decoding,
	// cache and store, response encoding).
	for _, kind := range serveKinds {
		k := tr.byKind[kind]
		if k == nil {
			continue
		}
		kn := float64(k.ops)
		per := func(nanos int64) float64 { return ratio(float64(nanos)/1e6, kn) }
		v["client.rtt_ms."+kind] = per(k.incl["client.rtt"])
		v["client.decode_ms."+kind] = per(k.incl["client.decode"])
		v["server.handler_ms."+kind] = per(k.incl["server.handler"])
		v["server.stage_ms."+kind] = per(k.incl["server.handler"] - k.self["server.handler"])
		v["server.other_ms."+kind] = per(k.self["server.handler"])
	}
	if k := tr.byKind["mine_delta"]; k != nil {
		v["transact.delta_ms"] = ratio(float64(k.self["transact.delta"])/1e6, float64(k.ops))
		v["mining.patch_ms"] = ratio(float64(k.self["mining.patch"])/1e6, float64(k.ops))
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc; where that is unavailable it falls back to the memory the Go
// runtime has obtained from the system.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
