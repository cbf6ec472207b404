// Package obs is the observability layer of the characterization
// engine: named process-level counters, a per-sweep Recorder of spans
// and counter tallies carried on the sweep's context, with a Chrome
// trace_event exporter, and a terminal progress line for long sweeps.
//
// The package exists to make the sweep engine watchable without
// perturbing it. Everything is allocation-conscious and off by default:
// counters are single atomic adds; spans go only to a Recorder on the
// sweep's context (with none, a span site costs one nil check — no
// trace state is process-global); the progress line is an explicit
// opt-in object.
//
// Every span and counter name used anywhere in the repo is declared in
// this package (see names.go) and documented in docs/observability.md;
// a sync test enforces that the two lists match exactly.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is one monotonically increasing process-level metric. Create
// counters once, at package init, with NewCounter; increments are a
// single atomic add and safe from any goroutine.
type Counter struct {
	name string
	v    atomic.Uint64
}

var counterRegistry struct {
	mu sync.Mutex
	m  map[string]*Counter
}

// NewCounter registers a counter under a canonical name from
// names.go. It panics on a duplicate or undeclared name — both are
// programming errors that would silently skew docs/observability.md.
func NewCounter(name string) *Counter {
	if !knownCounterName(name) {
		panic(fmt.Sprintf("obs: counter %q is not declared in names.go", name))
	}
	counterRegistry.mu.Lock()
	defer counterRegistry.mu.Unlock()
	if counterRegistry.m == nil {
		counterRegistry.m = make(map[string]*Counter)
	}
	if _, ok := counterRegistry.m[name]; ok {
		panic(fmt.Sprintf("obs: counter %q registered twice", name))
	}
	c := &Counter{name: name}
	counterRegistry.m[name] = c
	return c
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Dec subtracts one. It exists for the few gauge-valued counters
// (queue depths) whose current level, not cumulative total, is the
// observable; monotone counters must never call it.
func (c *Counter) Dec() { c.v.Add(^uint64(0)) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counters snapshots every registered counter. Only counters whose
// owning package has been imported appear; the full canonical name set
// is AllCounters.
func Counters() map[string]uint64 {
	counterRegistry.mu.Lock()
	defer counterRegistry.mu.Unlock()
	out := make(map[string]uint64, len(counterRegistry.m))
	for name, c := range counterRegistry.m {
		out[name] = c.Value()
	}
	return out
}

// RegisteredCounterNames lists the registered counters, sorted.
func RegisteredCounterNames() []string {
	counterRegistry.mu.Lock()
	defer counterRegistry.mu.Unlock()
	out := make([]string, 0, len(counterRegistry.m))
	for name := range counterRegistry.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ResetCounters zeroes every registered counter (test hook; the
// registry itself is append-only for the life of the process).
func ResetCounters() {
	counterRegistry.mu.Lock()
	defer counterRegistry.mu.Unlock()
	for _, c := range counterRegistry.m {
		c.v.Store(0)
	}
}
