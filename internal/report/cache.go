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
// partial run is returned to its caller but never memoized. An entry
// also holds its v1 export bytes, rendered on the first request for
// them and shared by every later hit (Characterization.V1). Each
// entobenchd server owns an Engine; the CLIs, ento and the table
// writers share one package default through RunSweepQuery and
// InvalidateCharacterization.

// Memo counters (docs/observability.md), summed over every engine.
var (
	ctrCacheHit     = obs.NewCounter(obs.CounterSweepCacheHit)
	ctrCacheMiss    = obs.NewCounter(obs.CounterSweepCacheMiss)
	ctrCacheEvicted = obs.NewCounter(obs.CounterSweepCacheEvicted)
	ctrRendered     = obs.NewCounter(obs.CounterSweepCacheRendered)
)

// DefaultSweepCacheCapacity is the default bound on retained completed
// sweeps. Each entry holds one Characterization (records plus cells —
// tens of kilobytes) and, once rendered, its v1 bytes (about 120 KB
// for the full Table IV suite, 32 KB for an 8-kernel query), so the
// default keeps a long-running server's result memory in the low
// megabytes.
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

// put memoizes a completed result with the lazy v1 bytes its hits
// share, then drops least-recently-hit entries until the capacity
// bound holds. It returns what the caller should hand out: the new
// entry, the entry a concurrent identical query landed first, or, when
// the memo was invalidated since gen, c itself, unmemoized.
func (e *Engine) put(key string, gen uint64, c Characterization) Characterization {
	e.mu.Lock()
	defer e.mu.Unlock()
	if gen != e.gen {
		return c
	}
	if el, landed := e.entries[key]; landed {
		return el.Value.(*memoEntry).c
	}
	c.v1 = new(v1Bytes)
	e.entries[key] = e.lru.PushFront(&memoEntry{key: key, c: c})
	for e.lru.Len() > e.capacity {
		delete(e.entries, e.lru.Remove(e.lru.Back()).(*memoEntry).key)
		ctrCacheEvicted.Inc()
	}
	return c
}

// Query is what a sweep characterizes — kernels, boards and
// measurement backend — with its memo key, computed once by NewQuery
// for both weighing and sweeping.
type Query struct {
	specs   []core.Spec
	archs   []mcu.Arch
	backend harness.Backend
	key     string
}

// NewQuery keys the query of specs on archs through backend be. The
// backend salt keeps trace-backed and classic sweeps of one grid apart;
// the classic path adds nothing.
func NewQuery(specs []core.Spec, archs []mcu.Arch, be harness.Backend) Query {
	return Query{specs: specs, archs: archs, backend: be,
		key: SweepKey(specs, archs, harness.DefaultConfig(), harness.BackendSalt(be))}
}

// Sweep is the cached way to characterize: it returns q's
// characterization from the memo when an identical query already
// completed, and otherwise sweeps against the engine's execution
// table, sharing every kernel execution another sweep holds or has in
// flight. q fixes what is swept, its backend included (it replaces
// opts.Backend); opts shape only how (the worker count never changes
// the result). The caller's Progress hook is not invoked on a memo
// hit, and the memo key leaves out opts.CellCache, so a hit writes no
// cells to it. The hit or miss is counted on the recorder opts.Context
// carries, if any, as well as process-wide. Callers must treat the
// shared records and v1 bytes as read-only.
func (e *Engine) Sweep(q Query, opts core.SweepOptions) (Characterization, error) {
	var rec *obs.Recorder
	if opts.Context != nil {
		rec = obs.RecorderFrom(opts.Context)
	}
	c, ok, gen := e.get(q.key)
	if ok {
		rec.Inc(ctrCacheHit)
		return c, nil
	}
	rec.Inc(ctrCacheMiss)
	opts.Backend = q.backend
	recs, err := e.table.Characterize(q.specs, q.archs, opts)
	c = Characterization{Records: recs}
	if err == nil && !c.Partial() {
		c = e.put(q.key, gen, c)
	}
	return c, err
}

// Weight is the compute q would pin, in sweep-engine jobs: 0 when the
// memo holds it (a probe that counts as a hit for recency), otherwise
// the job count of the kernels whose executions the table neither
// holds nor has in flight (core.ExecTable.PendingJobs). The server's
// admission controller charges it; a query weighing 0 is
// admission-exempt.
func (e *Engine) Weight(q Query) int {
	if _, ok, _ := e.get(q.key); ok {
		return 0
	}
	return e.table.PendingJobs(q.specs, q.archs)
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
	return defaultEngine.Sweep(NewQuery(specs, archs, opts.Backend), opts)
}

// InvalidateCharacterization invalidates the default engine — the
// explicit hook for tests and for callers that mutate the modeled cost
// parameters.
func InvalidateCharacterization() { defaultEngine.Invalidate() }
