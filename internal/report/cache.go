package report

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
)

// Cached characterization, shared by every consumer — the table
// writers, ento.Sweep, the CLIs, every entobenchd request — in two
// layers: a memo of completed results keyed by SweepKey, which answers
// a repeated query without sweeping, and one process-wide
// kernel-execution table (core.ExecTable), which every sweep on a memo
// miss runs against, on its caller's own context and progress hook, so
// concurrent and overlapping queries execute each kernel once. The
// memo is bounded (SetSweepCacheCapacity, least-recently-hit evicted
// first), its one mutex is never held across a sweep, and it retains
// only complete, healthy sweeps: a partial run is returned to its
// caller but never memoized.

// Memo counters (docs/observability.md).
var (
	ctrCacheHit     = obs.NewCounter(obs.CounterSweepCacheHit)
	ctrCacheMiss    = obs.NewCounter(obs.CounterSweepCacheMiss)
	ctrCacheEvicted = obs.NewCounter(obs.CounterSweepCacheEvicted)
)

// DefaultSweepCacheCapacity is the default bound on retained completed
// sweeps. Each entry holds one Characterization (records plus cells —
// tens of kilobytes), so the default keeps a long-running server's
// result memory in the low megabytes.
const DefaultSweepCacheCapacity = 64

// executions is the kernel-execution table every RunSweepQuery sweep
// shares.
var executions core.ExecTable

// memoEntry is one completed query in the memo's LRU list.
type memoEntry struct {
	key string
	c   Characterization
}

// sweepMemo maps keys to elements of lru (most recently hit first),
// never longer than capacity. gen counts invalidations, so a sweep
// that straddles one is not memoized.
type sweepMemo struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List
	capacity int
	gen      uint64
}

var memo = &sweepMemo{
	entries:  make(map[string]*list.Element),
	lru:      list.New(),
	capacity: DefaultSweepCacheCapacity,
}

// get returns key's completed result, promoting it, plus the
// generation a miss should memoize under.
func (m *sweepMemo) get(key string) (Characterization, bool, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return Characterization{}, false, m.gen
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry).c, true, m.gen
}

// put memoizes a completed result unless the memo was invalidated
// since gen or a concurrent identical query landed first.
func (m *sweepMemo) put(key string, gen uint64, c Characterization) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, landed := m.entries[key]; landed || gen != m.gen {
		return
	}
	m.entries[key] = m.lru.PushFront(&memoEntry{key: key, c: c})
	m.evictLocked()
}

// evictLocked drops least-recently-hit entries until the capacity
// bound holds.
func (m *sweepMemo) evictLocked() {
	for m.lru.Len() > m.capacity {
		delete(m.entries, m.lru.Remove(m.lru.Back()).(*memoEntry).key)
		ctrCacheEvicted.Inc()
	}
}

// SetSweepCacheCapacity bounds how many completed sweeps the memo
// retains (minimum one). Lowering it evicts the least recently hit
// entries at once. entobenchd exposes this as -cachecap.
func SetSweepCacheCapacity(n int) {
	memo.mu.Lock()
	memo.capacity = max(n, 1)
	memo.evictLocked()
	memo.mu.Unlock()
}

// RunSweepQuery is the cached way to characterize: it returns the
// characterization of the given kernel set on the given boards from
// the memo when an identical query already completed, and otherwise
// sweeps against the process-wide execution table, sharing every
// kernel execution another sweep holds or has in flight. Options shape
// only a sweep (the worker count never changes the result); the
// caller's Progress hook is not invoked on a memo hit. The hit or miss
// is counted on the recorder opts.Context carries, if any, as well as
// process-wide. Callers must treat the shared records as read-only.
func RunSweepQuery(specs []core.Spec, archs []mcu.Arch, opts core.SweepOptions) (Characterization, error) {
	var rec *obs.Recorder
	if opts.Context != nil {
		rec = obs.RecorderFrom(opts.Context)
	}
	key := queryKey(specs, archs, opts.Backend)
	c, ok, gen := memo.get(key)
	if ok {
		rec.Inc(ctrCacheHit)
		return c, nil
	}
	rec.Inc(ctrCacheMiss)
	opts.Context = core.WithExecTable(opts.Context, &executions)
	recs, err := core.CharacterizeSuiteOpts(specs, archs, opts)
	c = Characterization{Records: recs}
	if err == nil && !c.Partial() {
		memo.put(key, gen, c)
	}
	return c, err
}

// queryKey is a query's memo key. The backend salt keeps trace-backed
// and classic sweeps of one grid apart; the classic path adds nothing.
func queryKey(specs []core.Spec, archs []mcu.Arch, be harness.Backend) string {
	return SweepKey(specs, archs, harness.DefaultConfig(), harness.BackendSalt(be))
}

// AdmissionWeight is the compute a query would pin, in sweep-engine
// jobs: 0 when the memo holds it (a probe that counts as a hit for
// recency), otherwise the job count of the
// kernels whose executions the process-wide table neither holds nor
// has in flight (core.ExecTable.PendingJobs). The server's admission
// controller charges it; a query weighing 0 is admission-exempt.
func AdmissionWeight(specs []core.Spec, archs []mcu.Arch, be harness.Backend) int {
	if _, ok, _ := memo.get(queryKey(specs, archs, be)); ok {
		return 0
	}
	return executions.PendingJobs(specs, archs)
}

// InvalidateCharacterization empties the memo and the execution table,
// so the next query executes every kernel again — the explicit
// invalidation hook for tests and for callers that mutate the modeled
// cost parameters. Sweeps already running complete for their callers
// but are not retained.
func InvalidateCharacterization() {
	memo.mu.Lock()
	memo.entries = make(map[string]*list.Element)
	memo.lru = list.New()
	memo.gen++
	memo.mu.Unlock()
	executions.Reset()
}
