package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	sp := tr.Stage("extract") // must not panic
	sp.End()
	tr.Pass(PassEvent{K: 2, Candidates: 10})
	tr.Add("x", 1)
	if tr.Counter("x") != 0 {
		t.Error("nil trace counter must read 0")
	}
	if tr.Counters() != nil {
		t.Error("nil trace Counters must be nil")
	}
	Span{}.End() // zero span is also a no-op
}

func TestCollectorStagesAndPasses(t *testing.T) {
	c := NewCollector()
	tr := New(c)
	sp := tr.Stage("extract")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Pass(PassEvent{K: 2, Candidates: 105, PrunedDeps: 3, PrunedSameFeature: 9, Frequent: 40, Duration: time.Millisecond})

	stages := c.Stages()
	if len(stages) != 1 || stages[0].Name != "extract" {
		t.Fatalf("stages = %+v", stages)
	}
	if stages[0].Duration <= 0 {
		t.Errorf("stage duration = %v, want > 0", stages[0].Duration)
	}
	passes := c.Passes()
	if len(passes) != 1 || passes[0].Candidates != 105 || passes[0].PrunedSameFeature != 9 {
		t.Fatalf("passes = %+v", passes)
	}
	// Events retain the begin/end pair plus the pass.
	if got := events(c); len(got) != 3 || got[0].Kind != KindStageBegin {
		t.Fatalf("events = %+v", got)
	}
	// Pass counts fold into aggregate counters.
	if tr.Counter("mine.candidates") != 105 || tr.Counter("mine.frequent") != 40 {
		t.Errorf("counters = %v", tr.Counters())
	}
	if tr.Counter("stage.extract.nanos") <= 0 {
		t.Error("stage counter missing")
	}
}

// events returns the collector's retained events in emission order.
func events(c *Collector) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshot()
}

func TestCountersConcurrent(t *testing.T) {
	tr := New(nil) // nil sink: counters only
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := tr.Counter("n"); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestTextSink(t *testing.T) {
	var b strings.Builder
	tr := New(NewTextSink(&b))
	sp := tr.Stage("mine")
	sp.End()
	tr.Pass(PassEvent{K: 2, Candidates: 7, Frequent: 3})
	out := b.String()
	if !strings.Contains(out, "stage mine") {
		t.Errorf("missing stage line: %q", out)
	}
	if !strings.Contains(out, "pass k=2") || !strings.Contains(out, "candidates=7") {
		t.Errorf("missing pass line: %q", out)
	}
}

func TestMulti(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("empty Multi must be nil")
	}
	if Multi(a) != Sink(a) {
		t.Error("single Multi must unwrap")
	}
	tr := New(Multi(a, nil, b))
	tr.Pass(PassEvent{K: 2})
	if len(a.Passes()) != 1 || len(b.Passes()) != 1 {
		t.Error("multi sink must fan out")
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("plain context must yield nil trace")
	}
	tr := New(nil)
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("trace did not round-trip")
	}
	if WithTrace(context.Background(), nil) != context.Background() {
		t.Error("nil trace must not wrap the context")
	}
}

func TestCollectorMetrics(t *testing.T) {
	c := NewCollector()
	tr := New(c)
	sp := tr.Stage("rules")
	sp.End()
	tr.Pass(PassEvent{K: 2, Frequent: 1})
	m := c.Metrics(tr)
	if len(m.Stages) != 1 || len(m.Passes) != 1 || m.Counters["mine.frequent"] != 1 {
		t.Errorf("metrics = %+v", m)
	}
	var b strings.Builder
	if err := c.WriteJSON(&b, tr); err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if len(back.Stages) != 1 || back.Stages[0].Name != "rules" {
		t.Errorf("decoded metrics = %+v", back)
	}
}

func TestFormatCounters(t *testing.T) {
	out := FormatCounters(map[string]int64{"b": 2, "a": 1})
	ai, bi := strings.Index(out, "a"), strings.Index(out, "b")
	if ai < 0 || bi < 0 || ai > bi {
		t.Errorf("counters not sorted: %q", out)
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		KindStageBegin: "stage-begin",
		KindStageEnd:   "stage-end",
		KindPass:       "pass",
		EventKind(0):   "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestRingCollector pins the bounded retention the qsrmined daemon
// relies on: only the most recent limit events survive, in order, with
// the overflow counted, and Reset clears everything.
func TestRingCollector(t *testing.T) {
	c := NewRingCollector(3)
	for k := 1; k <= 5; k++ {
		c.Emit(Event{Kind: KindPass, Pass: PassEvent{K: k}})
	}
	passes := c.Passes()
	if len(passes) != 3 {
		t.Fatalf("retained %d events, want 3", len(passes))
	}
	for i, want := range []int{3, 4, 5} {
		if passes[i].K != want {
			t.Errorf("passes[%d].K = %d, want %d (ring must keep the newest in order)", i, passes[i].K, want)
		}
	}
	if m := c.Metrics(nil); m.DroppedEvents != 2 {
		t.Errorf("DroppedEvents = %d, want 2", m.DroppedEvents)
	}
	c.Reset()
	if got := events(c); len(got) != 0 {
		t.Errorf("Reset left %d events", len(got))
	}
	if m := c.Metrics(nil); m.DroppedEvents != 0 {
		t.Errorf("Reset left DroppedEvents = %d", m.DroppedEvents)
	}
	// After a reset the ring refills from scratch.
	c.Emit(Event{Kind: KindPass, Pass: PassEvent{K: 9}})
	if passes := c.Passes(); len(passes) != 1 || passes[0].K != 9 {
		t.Errorf("post-reset passes = %+v", passes)
	}
	// An unbounded collector never drops.
	u := NewCollector()
	for k := 0; k < 100; k++ {
		u.Emit(Event{Kind: KindPass, Pass: PassEvent{K: k}})
	}
	if len(events(u)) != 100 || u.Metrics(nil).DroppedEvents != 0 {
		t.Error("unbounded collector must retain everything")
	}
}
