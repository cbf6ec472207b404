package obs

import (
	"cmp"
	"context"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Per-sweep recording. A Recorder travels on the context.Context a
// sweep takes (WithRecorder / RecorderFrom), so two sweeps recording at
// once never mix. Spans are complete events — recorded once, at their
// end — so the recorder is a mutex-guarded append with no per-goroutine
// state.

// Arg is one key/value annotation on a span (kernel name, arch, …).
type Arg struct{ Key, Val string }

// Span is one completed timed region. Times are nanoseconds relative to
// the recorder's creation, so exported traces start at t=0.
type Span struct {
	Name    string
	StartNS int64
	DurNS   int64
	// TID is the logical thread lane the span renders on in a trace
	// viewer: 0 for the sweep coordinator, 1..N for pool workers.
	TID  int
	Args []Arg
}

// Recorder collects the spans and counter tallies of the sweeps whose
// context carries it; safe for concurrent use. A nil *Recorder records
// nothing: instrumented code looks it up once per sweep and, without
// one, pays a nil check per span site and bumps only the global counter.
type Recorder struct {
	start time.Time
	mu    sync.Mutex
	spans []Span
	tally map[string]uint64
}

// NewRecorder returns an empty recorder whose span clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{start: time.Now(), tally: make(map[string]uint64)}
}

type recorderKey struct{}

// WithRecorder returns a child of ctx carrying r.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// RecorderFrom returns the recorder ctx carries, or nil.
func RecorderFrom(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}

// RecordSpan appends one completed span; a nil recorder drops it
// (callers check for nil first, to skip building the arguments).
func (r *Recorder) RecordSpan(name string, start, end time.Time, tid int, args ...Arg) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{
		Name:    name,
		StartNS: start.Sub(r.start).Nanoseconds(),
		DurNS:   end.Sub(start).Nanoseconds(),
		TID:     tid,
		Args:    args,
	})
	r.mu.Unlock()
}

// Inc bumps c, the process-wide counter /metrics reads, and, on a
// non-nil recorder, the recorder's own tally of it.
func (r *Recorder) Inc(c *Counter) {
	c.Inc()
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tally[c.name]++
	r.mu.Unlock()
}

// Count returns the recorder's tally of the named counter: the
// increments made through Inc on this recorder only.
func (r *Recorder) Count(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tally[name]
}

// Spans snapshots the recorded spans, sorted by start time (ties by
// lane then name) so export order is deterministic.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	slices.SortStableFunc(spans, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.StartNS, b.StartNS), cmp.Compare(a.TID, b.TID), cmp.Compare(a.Name, b.Name))
	})
	return spans
}

// chromeEvent is one trace_event record; see the Trace Event Format
// spec (the format chrome://tracing and Perfetto load).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the recorded spans in Chrome trace_event
// JSON (object form, complete "X" events plus thread-name metadata),
// loadable by chrome://tracing and Perfetto.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	const pid = 1
	spans := r.Spans()
	lanes := map[int]bool{}
	events := make([]chromeEvent, 0, len(spans)+4)
	for _, s := range spans {
		lanes[s.TID] = true
		var args map[string]string
		if len(s.Args) > 0 {
			args = make(map[string]string, len(s.Args))
			for _, a := range s.Args {
				args[a.Key] = a.Val
			}
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  "sweep",
			Ph:   "X",
			TS:   float64(s.StartNS) / 1e3,
			Dur:  float64(s.DurNS) / 1e3,
			PID:  pid,
			TID:  s.TID,
			Args: args,
		})
	}
	tids := make([]int, 0, len(lanes))
	for tid := range lanes {
		tids = append(tids, tid)
	}
	slices.Sort(tids)
	meta := make([]chromeEvent, 0, len(tids))
	for _, tid := range tids {
		name := "coordinator"
		if tid > 0 {
			name = "worker " + strconv.Itoa(tid)
		}
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]string{"name": name},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: append(meta, events...), DisplayTimeUnit: "ms"})
}
