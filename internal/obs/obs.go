// Package obs is the pipeline observability layer: stage spans with wall
// time, monotonic named counters, and
// per-Apriori-pass events carrying candidate/pruned/frequent counts, all
// delivered to a pluggable Sink.
//
// The layer is allocation-conscious and safe to leave permanently wired
// into hot paths: a nil *Trace is a valid receiver for every method and
// costs a single predictable branch, spans are value types that never
// escape to the heap on the no-op path, and events are emitted by value.
// A Trace is attached to a context.Context with WithTrace and recovered
// with FromContext, so the pipeline stages need no extra parameters.
//
//	tr := obs.New(obs.NewTextSink(os.Stderr))
//	ctx := obs.WithTrace(context.Background(), tr)
//	out, err := core.RunContext(ctx, scene, cfg)
package obs

import (
	"strconv"
	"sync"
	"time"
)

// EventKind discriminates Event payloads.
type EventKind uint8

// Event kinds.
const (
	// KindStageBegin marks the start of a named pipeline stage.
	KindStageBegin EventKind = iota + 1
	// KindStageEnd carries the stage's wall time.
	KindStageEnd
	// KindPass carries one mining pass's candidate/pruned/frequent
	// counts.
	KindPass
	// KindAnnotation is a free-form note attached to a named subsystem —
	// the server emits one per HTTP request (carrying the request ID) and
	// the front node one per failover, upload, and patch.
	KindAnnotation
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case KindStageBegin:
		return "stage-begin"
	case KindStageEnd:
		return "stage-end"
	case KindPass:
		return "pass"
	case KindAnnotation:
		return "annotation"
	}
	return "unknown"
}

// PassEvent records one mining pass — the per-pass numbers behind the
// paper's Figures 4-7 and the substrate for candidate-explosion
// diagnosis.
type PassEvent struct {
	// K is the itemset size of the pass.
	K int `json:"k"`
	// Candidates counts C_k before any filtering.
	Candidates int `json:"candidates"`
	// PrunedDeps counts Φ dependency pairs removed at k=2.
	PrunedDeps int `json:"prunedDeps"`
	// PrunedSameFeature counts same-feature pairs removed at k=2 (KC+).
	PrunedSameFeature int `json:"prunedSameFeature"`
	// Frequent counts L_k.
	Frequent int `json:"frequent"`
	// Duration is the wall-clock time of the pass.
	Duration time.Duration `json:"wallNanos"`
}

// Event is one observation delivered to a Sink. It is passed by value so
// sinks can retain it without aliasing concerns.
type Event struct {
	// Kind selects which fields are meaningful.
	Kind EventKind `json:"kind"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Stage names the pipeline stage (stage events only).
	Stage string `json:"stage,omitempty"`
	// Duration is the stage wall time (KindStageEnd only).
	Duration time.Duration `json:"wallNanos,omitempty"`
	// Pass is the pass payload (KindPass only).
	Pass PassEvent `json:"pass"`
	// Detail is the annotation text (KindAnnotation only).
	Detail string `json:"detail,omitempty"`
}

// Sink receives events. Implementations must be safe for concurrent use;
// the pipeline emits from worker goroutines.
type Sink interface {
	Emit(Event)
}

// Trace is the per-run observability handle. The zero of *Trace (nil) is
// a valid no-op: every method checks the receiver, so call sites need no
// guards and pay no measurable cost when tracing is off.
type Trace struct {
	sink Sink

	mu       sync.Mutex
	counters map[string]int64
}

// New returns a Trace emitting to sink. A nil sink is allowed: the trace
// then only accumulates counters.
func New(sink Sink) *Trace {
	return &Trace{sink: sink, counters: make(map[string]int64)}
}

// Span measures one pipeline stage. It is a value type: the no-op span
// (zero value, or any span from a nil Trace) costs nothing to End.
type Span struct {
	t     *Trace
	name  string
	start time.Time
}

// Stage starts a span for a named stage. Safe on a nil receiver.
func (t *Trace) Stage(name string) Span {
	if t == nil {
		return Span{}
	}
	sp := Span{t: t, name: name, start: time.Now()}
	if t.sink != nil {
		t.sink.Emit(Event{Kind: KindStageBegin, Time: sp.start, Stage: name})
	}
	return sp
}

// End closes the span, emitting a KindStageEnd event with the wall time
// and adding it to the "stage.<name>.nanos" counter.
func (s Span) End() {
	if s.t == nil {
		return
	}
	now := time.Now()
	e := Event{Kind: KindStageEnd, Time: now, Stage: s.name, Duration: now.Sub(s.start)}
	s.t.Add("stage."+s.name+".nanos", int64(e.Duration))
	if s.t.sink != nil {
		s.t.sink.Emit(e)
	}
}

// Pass emits a mining pass event and folds its counts into the aggregate
// counters. Safe on a nil receiver.
func (t *Trace) Pass(p PassEvent) {
	if t == nil {
		return
	}
	t.Add("mine.candidates", int64(p.Candidates))
	t.Add("mine.frequent", int64(p.Frequent))
	t.Add("mine.pruned_deps", int64(p.PrunedDeps))
	t.Add("mine.pruned_same_feature", int64(p.PrunedSameFeature))
	if t.sink != nil {
		t.sink.Emit(Event{Kind: KindPass, Time: time.Now(), Pass: p})
	}
}

// Annotate emits a KindAnnotation event for a named subsystem. Safe on
// a nil receiver; a trace without a sink drops the annotation (there is
// no counter side to a note).
func (t *Trace) Annotate(stage, detail string) {
	if t == nil || t.sink == nil {
		return
	}
	t.sink.Emit(Event{Kind: KindAnnotation, Time: time.Now(), Stage: stage, Detail: detail})
}

// Add increments a monotonic named counter. Safe on a nil receiver and
// for concurrent use.
func (t *Trace) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// WorkerCounter formats the canonical name of a per-worker counter:
// "<subsystem>.worker.<n>.<metric>". Parallel stages (the Eclat walk,
// the vertical counting pool) emit their fan-out balance under this
// convention so sinks and dashboards can group worker series without
// guessing at ad-hoc names.
func WorkerCounter(subsystem string, worker int, metric string) string {
	return subsystem + ".worker." + strconv.Itoa(worker) + "." + metric
}

// Counter returns the current value of one counter.
func (t *Trace) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Counters returns a snapshot copy of all counters.
func (t *Trace) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		out[k] = v
	}
	return out
}
