package profile

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
	_ "unsafe" // go:linkname

	"repro/internal/obs"
)

// Goroutine-scoped profiling sessions.
//
// The hooks (AddF &c.) fire from deep inside the scalar and matrix
// layers with no context value to thread a recorder through, so the
// active record must be ambient — but a process-global record would
// make concurrent harness runs cross-talk. Go offers no public
// goroutine-local storage; what it does offer is goroutine-attached
// pprof labels. A session therefore installs a unique label set on its
// goroutine through the public runtime/pprof API (keeping the pointer
// meaningful to the CPU profiler, which may dereference it as a label
// map) and uses the raw label pointer — read via the runtime's own
// push-linknamed accessor, one pointer load from the g struct — as the
// key into a copy-on-write session registry (a Go map).
//
// Costs, by path:
//   - no session anywhere in the process: one atomic load per hook;
//   - sessions elsewhere, none on this goroutine: plus one label read
//     (and a map miss if the goroutine carries other pprof labels);
//   - session on this goroutine: plus one map lookup.
// BenchmarkProfileHookOverhead (bench_test.go) tracks all three, and
// the own-session path with other sessions live. docs/performance.md
// gives the hook traffic a sweep makes, which a plain map serves.
//
// A session belongs to exactly one goroutine. Goroutines spawned while
// a session is active inherit the pprof labels and would race on the
// record; each simulated MCU is single-core, so kernel ROIs must stay
// single-goroutine (see DESIGN.md "Parallel sweep & caching").

//go:linkname runtime_getProfLabel runtime/pprof.runtime_getProfLabel
func runtime_getProfLabel() unsafe.Pointer

//go:linkname runtime_setProfLabel runtime/pprof.runtime_setProfLabel
func runtime_setProfLabel(p unsafe.Pointer)

// sessionLabel is the pprof label key carried by profiling goroutines;
// under `go test -cpuprofile` samples inside a ROI show up tagged with
// the session id.
const sessionLabel = "entobench.profile.session"

// session is the profiling state of one goroutine: a stack of active
// records (top cached for the hook path) plus the label-pointer key
// that locates it from a hook.
type session struct {
	key   unsafe.Pointer // goroutine's label pointer while the session lives
	prev  unsafe.Pointer // label pointer to restore when the session ends
	top   *Counts        // stack's innermost record; invariant: non-nil while registered
	stack []*Counts
}

// ctrSessions counts session creations — one per outermost profiled
// Collect (docs/observability.md).
var ctrSessions = obs.NewCounter(obs.CounterProfileSessions)

var (
	// sessions is the registry: label pointer → session. Nil when no
	// session is live anywhere, which gates the hooks: unprofiled
	// execution pays one atomic load per hook. Readers load it
	// lock-free; writers copy it under sessionsMu (a session begins and
	// ends once per profiled Collect — rare next to hooks) and publish
	// the copy with one atomic store.
	sessions   atomic.Pointer[map[unsafe.Pointer]*session]
	sessionsMu sync.Mutex
	sessionSeq atomic.Uint64
)

// publish replaces the registry with a copy that holds add, when
// non-nil, and lacks the session keyed drop; nil once none remain.
func publish(add *session, drop unsafe.Pointer) {
	sessionsMu.Lock()
	defer sessionsMu.Unlock()
	next := make(map[unsafe.Pointer]*session)
	if old := sessions.Load(); old != nil {
		for key, s := range *old {
			if key != drop {
				next[key] = s
			}
		}
	}
	if add != nil {
		next[add.key] = add
	}
	if len(next) == 0 {
		sessions.Store(nil)
		return
	}
	sessions.Store(&next)
}

// current returns the calling goroutine's session, or nil. A goroutine
// always finds its own session: its registration is ordered before any
// of its hooks.
func current() *session {
	m := sessions.Load()
	if m == nil {
		return nil
	}
	key := runtime_getProfLabel()
	if key == nil {
		return nil
	}
	return (*m)[key]
}

// ensureSession returns the calling goroutine's session, creating and
// registering one if needed.
func ensureSession() *session {
	if s := current(); s != nil {
		return s
	}
	ctrSessions.Inc()
	s := &session{prev: runtime_getProfLabel()}
	id := strconv.FormatUint(sessionSeq.Add(1), 10)
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels(sessionLabel, id)))
	s.key = runtime_getProfLabel()
	publish(s, nil)
	return s
}

// drop unregisters the session and restores the goroutine's previous
// pprof labels. Must be called from the owning goroutine with an empty
// stack.
func (s *session) drop() {
	publish(nil, s.key)
	runtime_setProfLabel(s.prev)
}

// push activates a fresh record on top of the stack.
func (s *session) push() *Counts {
	rec := &Counts{}
	s.stack = append(s.stack, rec)
	s.top = rec
	return rec
}

// pop deactivates the innermost record, crediting it to the enclosing
// record (the additive composition of nested Collects), and reports
// whether the stack is empty.
func (s *session) pop() bool {
	n := len(s.stack) - 1
	rec := s.stack[n]
	s.stack = s.stack[:n]
	if n == 0 {
		s.top = nil
		return true
	}
	s.top = s.stack[n-1]
	s.top.Add(*rec)
	return false
}
