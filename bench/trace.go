package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed region of a traced step. The root span of a step has
// the step's ID as its own ID and parent 0; every other span names the
// span that contained it. Times are nanoseconds since the part started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Step   int64  `json:"step"`
	Name   string `json:"name"`
	Start  int64  `json:"startNanos"`
	End    int64  `json:"endNanos"`
}

// layerTimes accumulates span times by span name over a set of steps:
// self is a span's duration minus the part its child spans cover, incl
// its whole duration. ops counts the steps of one kind, or for the whole
// run the ops.
type layerTimes struct {
	ops      int
	opNanos  int64 // Σ root-span durations
	rootSelf int64 // Σ root-span self time: bench glue between layers
	self     map[string]int64
	incl     map[string]int64
}

func newLayerTimes() *layerTimes {
	return &layerTimes{self: map[string]int64{}, incl: map[string]int64{}}
}

// tracer keeps every span of a traced run in memory, plus the per-layer
// sums the metrics are computed from, and writes the spans out as JSON
// lines when the run ends. Safe for concurrent use.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu       sync.Mutex
	spans    []span
	all      *layerTimes
	byKind   map[string]*layerTimes
	counters map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), all: newLayerTimes(), byKind: map[string]*layerTimes{}, counters: map[string]int64{}}
}

// stepTrace records the spans and counters of one step. It is used only
// from the goroutine running the step.
type stepTrace struct {
	tr       *tracer
	step     int64
	cur      int64 // innermost open span
	spans    []span
	counters map[string]int64
}

func (t *tracer) newStep() *stepTrace {
	id := t.ids.Add(1)
	return &stepTrace{tr: t, step: id, cur: id, counters: map[string]int64{}}
}

// region runs f as a span named name inside the innermost open span and
// returns the span's ID.
func (o *stepTrace) region(name string, f func()) int64 {
	id := o.tr.ids.Add(1)
	parent := o.cur
	o.cur = id
	start := time.Now()
	f()
	end := time.Now()
	o.cur = parent
	o.record(id, parent, name, start, end)
	return id
}

// region runs f, under a span named name when ot is a traced step, and
// returns the span's ID (0 when untraced).
func region(ot *stepTrace, name string, f func()) int64 {
	if ot == nil {
		f()
		return 0
	}
	return ot.region(name, f)
}

// add records a span measured by someone else (an obs stage, a server
// access-log line) under parent and returns its ID.
func (o *stepTrace) add(parent int64, name string, start, end time.Time) int64 {
	id := o.tr.ids.Add(1)
	o.record(id, parent, name, start, end)
	return id
}

func (o *stepTrace) record(id, parent int64, name string, start, end time.Time) {
	o.spans = append(o.spans, span{
		ID: id, Parent: parent, Step: o.step, Name: name,
		Start: start.Sub(o.tr.t0).Nanoseconds(), End: end.Sub(o.tr.t0).Nanoseconds(),
	})
}

// count adds to one of the step's counters.
func (o *stepTrace) count(name string, delta int64) { o.counters[name] += delta }

// commit closes the step with its root span [start, start+lat], labelled
// with the step's kind, and folds it into the run's sums.
func (t *tracer) commit(o *stepTrace, kind string, start time.Time, lat time.Duration) {
	o.record(o.step, 0, "step."+kind, start, start.Add(lat))
	covered := map[int64]int64{}
	for _, s := range o.spans {
		covered[s.Parent] += s.End - s.Start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := t.byKind[kind]
	if k == nil {
		k = newLayerTimes()
		t.byKind[kind] = k
	}
	k.ops++
	for _, lt := range []*layerTimes{t.all, k} {
		for _, s := range o.spans {
			dur := s.End - s.Start
			self := dur - covered[s.ID]
			if s.ID == o.step {
				lt.opNanos += dur
				lt.rootSelf += self
				continue
			}
			lt.self[s.Name] += self
			lt.incl[s.Name] += dur
		}
	}
	for name, v := range o.counters {
		t.counters[name] += v
	}
	t.spans = append(t.spans, o.spans...)
}

// endOp marks the end of an op, which may span several steps.
func (t *tracer) endOp() {
	t.mu.Lock()
	t.all.ops++
	t.mu.Unlock()
}

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
