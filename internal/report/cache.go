package report

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
)

// Cached characterization. An Engine answers queries in two layers: a
// memo of completed results keyed by SweepKey, which answers a repeated
// query without sweeping, and a kernel-execution table
// (core.ExecTable), which every sweep on a memo miss runs against, on
// its caller's own context and progress hook, so concurrent and
// overlapping queries execute each kernel once. The memo is bounded
// (least-recently-hit evicted first), its one mutex is never held
// across a sweep, and it retains only complete, healthy sweeps: a
// partial run is returned to its caller but never memoized. Each
// entobenchd server owns an Engine; the CLIs, ento and the table
// writers share one package default through RunSweepQuery and
// InvalidateCharacterization.

// Memo counters (docs/observability.md), summed over every engine.
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

// memoEntry is one completed query in the memo's LRU list.
type memoEntry struct {
	key string
	c   Characterization
}

// Engine is one sweep engine, made by NewEngine: the memo, which maps
// keys to elements of lru (most recently hit first) and never holds
// more than capacity, and the execution table its misses sweep
// against. gen counts invalidations, so a sweep that straddles one is
// not memoized.
type Engine struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List
	capacity int
	gen      uint64
	table    core.ExecTable
}

// NewEngine returns an empty engine that retains at most capacity
// completed sweeps; capacity <= 0 means DefaultSweepCacheCapacity.
func NewEngine(capacity int) *Engine {
	if capacity <= 0 {
		capacity = DefaultSweepCacheCapacity
	}
	return &Engine{entries: make(map[string]*list.Element), lru: list.New(), capacity: capacity}
}

// defaultEngine backs RunSweepQuery and InvalidateCharacterization.
var defaultEngine = NewEngine(0)

// get returns key's completed result, promoting it, plus the
// generation a miss should memoize under.
func (e *Engine) get(key string) (Characterization, bool, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.entries[key]
	if !ok {
		return Characterization{}, false, e.gen
	}
	e.lru.MoveToFront(el)
	return el.Value.(*memoEntry).c, true, e.gen
}

// put memoizes a completed result unless the memo was invalidated
// since gen or a concurrent identical query landed first, then drops
// least-recently-hit entries until the capacity bound holds.
func (e *Engine) put(key string, gen uint64, c Characterization) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, landed := e.entries[key]; landed || gen != e.gen {
		return
	}
	e.entries[key] = e.lru.PushFront(&memoEntry{key: key, c: c})
	for e.lru.Len() > e.capacity {
		delete(e.entries, e.lru.Remove(e.lru.Back()).(*memoEntry).key)
		ctrCacheEvicted.Inc()
	}
}

// Sweep is the cached way to characterize: it returns the
// characterization of the given kernel set on the given boards from
// the memo when an identical query already completed, and otherwise
// sweeps against the engine's execution table, sharing every kernel
// execution another sweep holds or has in flight. Options shape only a
// sweep (the worker count never changes the result); the caller's
// Progress hook is not invoked on a memo hit, and the memo key leaves
// out opts.CellCache, so a hit writes no cells to it. The hit or miss
// is counted on the recorder opts.Context carries, if any, as well as
// process-wide. Callers must treat the shared records as read-only.
func (e *Engine) Sweep(specs []core.Spec, archs []mcu.Arch, opts core.SweepOptions) (Characterization, error) {
	var rec *obs.Recorder
	if opts.Context != nil {
		rec = obs.RecorderFrom(opts.Context)
	}
	key := queryKey(specs, archs, opts.Backend)
	c, ok, gen := e.get(key)
	if ok {
		rec.Inc(ctrCacheHit)
		return c, nil
	}
	rec.Inc(ctrCacheMiss)
	recs, err := e.table.Characterize(specs, archs, opts)
	c = Characterization{Records: recs}
	if err == nil && !c.Partial() {
		e.put(key, gen, c)
	}
	return c, err
}

// queryKey is a query's memo key. The backend salt keeps trace-backed
// and classic sweeps of one grid apart; the classic path adds nothing.
func queryKey(specs []core.Spec, archs []mcu.Arch, be harness.Backend) string {
	return SweepKey(specs, archs, harness.DefaultConfig(), harness.BackendSalt(be))
}

// Weight is the compute a query would pin, in sweep-engine jobs: 0
// when the memo holds it (a probe that counts as a hit for recency),
// otherwise the job count of the kernels whose executions the table
// neither holds nor has in flight (core.ExecTable.PendingJobs). The
// server's admission controller charges it; a query weighing 0 is
// admission-exempt.
func (e *Engine) Weight(specs []core.Spec, archs []mcu.Arch, be harness.Backend) int {
	if _, ok, _ := e.get(queryKey(specs, archs, be)); ok {
		return 0
	}
	return e.table.PendingJobs(specs, archs)
}

// Invalidate empties the memo and the execution table, so the next
// query executes every kernel again. Sweeps already running complete
// for their callers but are not retained.
func (e *Engine) Invalidate() {
	e.mu.Lock()
	e.entries = make(map[string]*list.Element)
	e.lru = list.New()
	e.gen++
	e.mu.Unlock()
	e.table.Reset()
}

// RunSweepQuery is Sweep on the package's default engine, which the
// CLIs, ento.Sweep and the table writers share.
func RunSweepQuery(specs []core.Spec, archs []mcu.Arch, opts core.SweepOptions) (Characterization, error) {
	return defaultEngine.Sweep(specs, archs, opts)
}

// InvalidateCharacterization invalidates the default engine — the
// explicit hook for tests and for callers that mutate the modeled cost
// parameters.
func InvalidateCharacterization() { defaultEngine.Invalidate() }
