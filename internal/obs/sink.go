package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// StageRecord is one completed stage as retained by a Collector.
type StageRecord struct {
	// Name is the stage name.
	Name string `json:"name"`
	// Start is when the stage began.
	Start time.Time `json:"start"`
	// Duration is the stage wall time.
	Duration time.Duration `json:"wallNanos"`
}

// Collector is an in-memory Sink retaining every event, with typed views
// over the completed stages and mining passes. Safe for concurrent use.
// A Collector built with NewRingCollector instead retains only the most
// recent events, so a long-running process (the qsrmined daemon) can keep
// one wired in permanently without unbounded growth.
type Collector struct {
	mu      sync.Mutex
	events  []Event
	limit   int // 0 = unbounded
	start   int // ring read position when limit > 0
	dropped uint64
}

// NewCollector returns an empty, unbounded Collector.
func NewCollector() *Collector { return &Collector{} }

// NewRingCollector returns a Collector retaining only the limit most
// recent events; older events are dropped (and counted — see Metrics).
// A non-positive limit is treated as unbounded.
func NewRingCollector(limit int) *Collector {
	if limit < 0 {
		limit = 0
	}
	return &Collector{limit: limit}
}

// Emit implements Sink.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	if c.limit > 0 && len(c.events) == c.limit {
		c.events[c.start] = e
		c.start = (c.start + 1) % c.limit
		c.dropped++
	} else {
		c.events = append(c.events, e)
	}
	c.mu.Unlock()
}

// Reset drops every retained event (the dropped-event count included),
// e.g. after a metrics scrape that consumed them.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.events = c.events[:0]
	c.start = 0
	c.dropped = 0
	c.mu.Unlock()
}

// snapshot returns the retained events in emission order. Callers hold mu.
func (c *Collector) snapshot() []Event {
	out := make([]Event, 0, len(c.events))
	out = append(out, c.events[c.start:]...)
	out = append(out, c.events[:c.start]...)
	return out
}

// Stages returns the completed stages in completion order.
func (c *Collector) Stages() []StageRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []StageRecord
	for _, e := range c.snapshot() {
		if e.Kind == KindStageEnd {
			out = append(out, StageRecord{
				Name:     e.Stage,
				Start:    e.Time.Add(-e.Duration),
				Duration: e.Duration,
			})
		}
	}
	return out
}

// Passes returns the mining pass events in emission order.
func (c *Collector) Passes() []PassEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []PassEvent
	for _, e := range c.snapshot() {
		if e.Kind == KindPass {
			out = append(out, e.Pass)
		}
	}
	return out
}

// Metrics is the machine-readable summary of one traced run (or, for a
// permanently wired collector, of the process so far): completed stages,
// mining passes, and the trace's aggregate counters. DroppedEvents
// counts events a ring collector has discarded since the last Reset.
type Metrics struct {
	Stages        []StageRecord    `json:"stages"`
	Passes        []PassEvent      `json:"passes"`
	Counters      map[string]int64 `json:"counters,omitempty"`
	DroppedEvents uint64           `json:"droppedEvents,omitempty"`
}

// Metrics assembles the summary document. t may be nil (counters are
// then omitted).
func (c *Collector) Metrics(t *Trace) Metrics {
	c.mu.Lock()
	dropped := c.dropped
	c.mu.Unlock()
	return Metrics{Stages: c.Stages(), Passes: c.Passes(), Counters: t.Counters(), DroppedEvents: dropped}
}

// WriteJSON writes the Metrics summary as one indented JSON document.
func (c *Collector) WriteJSON(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Metrics(t))
}

// TextSink streams human-readable trace lines to a writer: one line per
// completed stage and one per mining pass. Begin events are not printed.
type TextSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTextSink returns a TextSink writing to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Emit implements Sink.
func (s *TextSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case KindStageEnd:
		fmt.Fprintf(s.w, "[trace] stage %-12s %12v\n", e.Stage, e.Duration)
	case KindPass:
		p := e.Pass
		fmt.Fprintf(s.w, "[trace]   pass k=%d  candidates=%d pruned_deps=%d pruned_same=%d frequent=%d  (%v)\n",
			p.K, p.Candidates, p.PrunedDeps, p.PrunedSameFeature, p.Frequent, p.Duration)
	case KindAnnotation:
		fmt.Fprintf(s.w, "[trace] note  %-12s %s\n", e.Stage, e.Detail)
	}
}

// multiSink fans events out to several sinks.
type multiSink []Sink

// Emit implements Sink.
func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi combines sinks into one. Nil entries are skipped; a single
// surviving sink is returned unwrapped, and zero sinks yield nil.
func Multi(sinks ...Sink) Sink {
	var out multiSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// FormatCounters renders a counter snapshot as sorted "name value"
// lines, for the CLI's -trace epilogue.
func FormatCounters(counters map[string]int64) string {
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	var b []byte
	for _, n := range names {
		b = append(b, fmt.Sprintf("[trace] counter %-28s %d\n", n, counters[n])...)
	}
	return string(b)
}
