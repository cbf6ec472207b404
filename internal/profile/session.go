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
// key into a copy-on-write session registry (sessionTable).
//
// Costs, by path:
//   - no session anywhere in the process: one atomic load per hook;
//   - sessions elsewhere, none on this goroutine: plus one label read;
//   - session on this goroutine: plus one table lookup, the same cost
//     for one live session as for hundreds.
// BenchmarkProfileHookOverhead (bench_test.go) tracks all three, and
// the own-session path with other sessions live.
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

// ctrSessions counts session creations — one per profiled Solve a
// sweep executes (docs/observability.md).
var ctrSessions = obs.NewCounter(obs.CounterProfileSessions)

var (
	// sessionCount gates the hooks: zero means no session exists
	// anywhere, so unprofiled execution pays one atomic load per hook.
	sessionCount atomic.Int64
	// sessions is the registry: label pointer → session. Readers load
	// it lock-free; writers rebuild it under sessionsMu (a session
	// begins and ends once per profiled Solve — rare next to hooks)
	// and publish the copy with one atomic store. Nil when none is
	// live.
	sessions   atomic.Pointer[sessionTable]
	sessionsMu sync.Mutex
	sessionSeq atomic.Uint64
)

// sessionTable is an immutable open-addressed hash table of live
// sessions keyed by label pointer: a power-of-two slot array kept at
// most a quarter full and probed linearly from a multiplicative hash
// of the key. rebuilt picks the multiplier, growing the array if need
// be, that puts every key within maxProbe slots of its home. A lookup
// therefore costs one multiply and at most maxProbe slot compares
// however many sessions are live — the daemon can hold hundreds.
type sessionTable struct {
	mult  uint64 // odd hash multiplier
	shift uint   // 64 - log2(len(slots))
	slots []sessionSlot
}

// maxProbe bounds the slots a lookup reads.
const maxProbe = 2

// sessionSlot is one table slot; a nil key marks it empty.
type sessionSlot struct {
	key unsafe.Pointer
	s   *session
}

// home is key's first probe slot.
func (t *sessionTable) home(key unsafe.Pointer) int {
	return int(uint64(uintptr(key)) * t.mult >> t.shift)
}

// lookup returns the session keyed by key, or nil.
func (t *sessionTable) lookup(key unsafe.Pointer) *session {
	mask := len(t.slots) - 1
	i := t.home(key)
	for n := 0; n < maxProbe; n++ {
		sl := &t.slots[i]
		if sl.key == key {
			return sl.s
		}
		if sl.key == nil {
			return nil
		}
		i = (i + 1) & mask
	}
	return nil
}

// rebuilt returns a fresh table of old's sessions minus the one keyed
// drop, plus add when non-nil; nil when none remain. The caller holds
// sessionsMu.
func rebuilt(old *sessionTable, add *session, drop unsafe.Pointer) *sessionTable {
	var live []*session
	if old != nil {
		for _, sl := range old.slots {
			if sl.key != nil && sl.key != drop {
				live = append(live, sl.s)
			}
		}
	}
	if add != nil {
		live = append(live, add)
	}
	if len(live) == 0 {
		return nil
	}
	bits := uint(2)
	for 1<<bits < 4*len(live) {
		bits++
	}
	mult := uint64(0x9E3779B97F4A7C15) // Fibonacci hashing first
	for try := 1; ; try++ {
		if t := place(live, bits, mult); t != nil {
			return t
		}
		if try%4 == 0 {
			bits++
		}
		// The next odd multiplier from a splitmix64 step.
		mult += 0x9E3779B97F4A7C15
		z := (mult ^ mult>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		mult = (z ^ z>>31) | 1
	}
}

// place builds a table of 1<<bits slots hashed by mult, or returns nil
// when some key would sit more than maxProbe-1 slots past its home.
func place(live []*session, bits uint, mult uint64) *sessionTable {
	t := &sessionTable{mult: mult, shift: 64 - bits, slots: make([]sessionSlot, 1<<bits)}
	mask := len(t.slots) - 1
	for _, s := range live {
		i := t.home(s.key)
		for n := 1; t.slots[i].key != nil; n++ {
			if n == maxProbe {
				return nil
			}
			i = (i + 1) & mask
		}
		t.slots[i] = sessionSlot{key: s.key, s: s}
	}
	return t
}

// current returns the calling goroutine's session, or nil. A goroutine
// always finds its own session: its registration is ordered before any
// of its hooks.
func current() *session {
	if sessionCount.Load() == 0 {
		return nil
	}
	key := runtime_getProfLabel()
	if key == nil {
		return nil
	}
	t := sessions.Load()
	if t == nil {
		return nil
	}
	return t.lookup(key)
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

	sessionsMu.Lock()
	sessions.Store(rebuilt(sessions.Load(), s, nil))
	sessionsMu.Unlock()
	sessionCount.Add(1)
	return s
}

// drop unregisters the session and restores the goroutine's previous
// pprof labels. Must be called from the owning goroutine with an empty
// stack.
func (s *session) drop() {
	sessionsMu.Lock()
	sessions.Store(rebuilt(sessions.Load(), nil, s.key))
	sessionsMu.Unlock()
	sessionCount.Add(-1)
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
