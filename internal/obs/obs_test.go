package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// The canonical counters are registered by the packages that own them
// (harness, profile, report), which the external docsync test pulls
// into this test binary. White-box tests therefore exercise Counter
// mechanics on directly constructed values and registry behaviour on
// the already-registered set.

func TestCounterMechanics(t *testing.T) {
	c := &Counter{name: "scratch"}
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("after Inc+Add(41): %d", c.Value())
	}
	if c.Name() != "scratch" {
		t.Fatalf("Name() = %q", c.Name())
	}
}

func TestRegistryHoldsAllCanonicalCounters(t *testing.T) {
	got := map[string]bool{}
	for _, name := range RegisteredCounterNames() {
		got[name] = true
	}
	for _, name := range AllCounters {
		if !got[name] {
			t.Errorf("canonical counter %q not registered (owning package not linked or constant unused)", name)
		}
	}
}

func TestCountersSnapshotAndReset(t *testing.T) {
	counterRegistry.mu.Lock()
	c := counterRegistry.m[CounterHarnessRuns]
	counterRegistry.mu.Unlock()
	if c == nil {
		t.Fatal("harness.runs not registered")
	}
	c.Add(7)
	if Counters()[CounterHarnessRuns] == 0 {
		t.Fatal("snapshot missed the increment")
	}
	ResetCounters()
	if v := Counters()[CounterHarnessRuns]; v != 0 {
		t.Fatalf("after reset: %d", v)
	}
}

func TestNewCounterRejectsUnknownAndDuplicate(t *testing.T) {
	mustPanic := func(name, why string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("NewCounter(%q) did not panic (%s)", name, why)
			}
		}()
		NewCounter(name)
	}
	mustPanic("not.a.declared.counter", "undeclared name")
	mustPanic(CounterHarnessRuns, "duplicate registration")
}

func TestTraceRecordsAndSorts(t *testing.T) {
	r := NewRecorder()
	base := time.Now()
	// Record out of order; Spans must sort by start.
	r.RecordSpan("b", base.Add(2*time.Millisecond), base.Add(3*time.Millisecond), 2)
	r.RecordSpan("a", base, base.Add(time.Millisecond), 1, Arg{Key: "kernel", Val: "madgwick"})
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Name != "a" || spans[1].Name != "b" {
		t.Fatalf("not sorted by start: %+v", spans)
	}
	if spans[0].DurNS != time.Millisecond.Nanoseconds() {
		t.Fatalf("dur = %d", spans[0].DurNS)
	}
}

// A nil recorder — what RecorderFrom returns for a context without one —
// drops spans and still bumps the process-wide counter.
func TestRecordSpanDisabledIsNoOp(t *testing.T) {
	r := RecorderFrom(context.Background())
	if r != nil {
		t.Fatalf("bare context carries recorder %p", r)
	}
	r.RecordSpan("ghost", time.Now(), time.Now(), 0)
	c := &Counter{name: CounterHarnessRuns}
	r.Inc(c)
	if c.Value() != 1 {
		t.Fatalf("nil recorder Inc: counter %d, want 1", c.Value())
	}
}

// Ending a sweep that recorded nothing yields nothing: a bare context
// carries no recorder, and a fresh recorder holds no spans and exports
// a trace without events.
func TestStopTraceWithoutStart(t *testing.T) {
	if r := RecorderFrom(context.Background()); r != nil {
		t.Fatalf("bare context carries recorder %p", r)
	}
	r := NewRecorder()
	if spans := r.Spans(); len(spans) != 0 {
		t.Fatalf("fresh recorder spans = %+v", spans)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty recorder exported %d events", len(doc.TraceEvents))
	}
}

// Each recorder tallies only the increments made through it, while the
// process-wide counter sees them all.
func TestRecorderTalliesAreItsOwn(t *testing.T) {
	c := &Counter{name: CounterSweepCellsCached}
	a, b := NewRecorder(), NewRecorder()
	ctx := WithRecorder(context.Background(), a)
	if RecorderFrom(ctx) != a {
		t.Fatal("RecorderFrom lost the attached recorder")
	}
	a.Inc(c)
	a.Inc(c)
	b.Inc(c)
	if a.Count(c.Name()) != 2 || b.Count(c.Name()) != 1 || c.Value() != 3 {
		t.Fatalf("tallies a=%d b=%d, counter %d; want 2, 1, 3", a.Count(c.Name()), b.Count(c.Name()), c.Value())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder()
	base := time.Now()
	r.RecordSpan(SpanSweepCell, base, base.Add(5*time.Millisecond), 1,
		Arg{Key: "kernel", Val: "madgwick"}, Arg{Key: "arch", Val: "M4"})
	r.RecordSpan(SpanSweep, base, base.Add(6*time.Millisecond), 0)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var metas, complete int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
			if e.Name != "thread_name" {
				t.Errorf("metadata event %q", e.Name)
			}
		case "X":
			complete++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
		if e.Name == SpanSweepCell {
			if e.Args["kernel"] != "madgwick" || e.Args["arch"] != "M4" {
				t.Errorf("cell args = %v", e.Args)
			}
			if e.Dur < 4999 || e.Dur > 5001 { // microseconds
				t.Errorf("cell dur = %v µs, want ~5000", e.Dur)
			}
		}
	}
	if metas != 2 || complete != 2 { // lanes 0 and 1 named, two spans
		t.Fatalf("events: %d metadata, %d complete; want 2 and 2", metas, complete)
	}
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "sweep")
	p.Update(1, 0, 4)
	p.Update(2, 0, 4) // inside the rate-limit window: dropped
	p.Update(4, 0, 4) // final update always renders
	p.Done()
	out := buf.String()
	if !strings.Contains(out, "\r[sweep] 1/4 cells (25%)") {
		t.Fatalf("first update missing: %q", out)
	}
	if strings.Contains(out, "2/4") {
		t.Fatalf("rate-limited update rendered: %q", out)
	}
	if !strings.Contains(out, "4/4 cells (100%)") {
		t.Fatalf("final update missing: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("Done() did not terminate the line: %q", out)
	}
	before := buf.Len()
	p.Update(5, 0, 5) // after Done: ignored
	if buf.Len() != before {
		t.Fatal("update after Done wrote output")
	}
}

// A sweep with skipped cells (cancellation) must say so:
// the percentage counts only executed cells and the skip count renders
// explicitly, so 1 done + 3 skipped never reads as a finished sweep.
func TestProgressLineRendersSkips(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "sweep")
	p.Update(1, 3, 4) // done+skipped == total: final, renders despite rate limit
	p.Done()
	out := buf.String()
	if !strings.Contains(out, "1/4 cells (25%, 3 skipped)") {
		t.Fatalf("skip rendering missing: %q", out)
	}
	if strings.Contains(out, "100%") {
		t.Fatalf("skipped cells counted as done: %q", out)
	}
}

func TestProgressNeverRenderedStaysSilent(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "idle")
	p.Done()
	if buf.Len() != 0 {
		t.Fatalf("Done on silent progress wrote %q", buf.String())
	}
}
