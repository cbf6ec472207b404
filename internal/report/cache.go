package report

import (
	"container/list"
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
)

// Keyed characterization cache. The suite sweep is the most expensive
// computation in the repo and its result is deterministic in its
// inputs, so every consumer — the table writers, ento.Sweep, the CLIs,
// and every entobenchd HTTP client — shares one cache keyed
// by a content digest of the query (SweepKey: kernel set × board
// models × harness config). Identical queries coalesce: the first
// caller leads the run, concurrent identical callers subscribe to the
// same in-flight entry (singleflight) and share its progress stream,
// and later identical callers are served the completed result without
// re-sweeping.
//
// The cache is bounded: completed entries beyond the capacity
// (SetSweepCacheCapacity) are evicted least-recently-hit first, so a
// long-running entobenchd holds a predictable amount of result memory
// however many distinct queries it has answered. One mutex guards the
// whole cache; it is held only for map and list updates, never across
// a sweep.
//
// Cancellation is reference-counted per entry: every caller joined to a
// run holds a subscription, a caller whose context ends merely drops
// its subscription, and only when the last subscriber is gone does the
// entry cancel the underlying sweep (which then lands partial and is
// discarded). A disconnected client therefore cancels only its own
// cells — never a run other clients are still waiting on.
//
// Only complete, healthy sweeps are retained. A partial run — contained
// kernel failures, a watchdog timeout, cancellation — is returned to
// the callers that waited on it but never cached, so the cache can only
// ever serve the full dataset and the next identical query re-sweeps.

// Cache observability counters (docs/observability.md): how often a
// query was answered from a completed entry, how often a sweep actually
// ran, how often identical in-flight queries coalesced, and how many
// completed entries the capacity bound dropped.
var (
	ctrCacheHit       = obs.NewCounter(obs.CounterSweepCacheHit)
	ctrCacheMiss      = obs.NewCounter(obs.CounterSweepCacheMiss)
	ctrCacheCoalesced = obs.NewCounter(obs.CounterSweepCacheCoalesced)
	ctrCacheEvicted   = obs.NewCounter(obs.CounterSweepCacheEvicted)
)

// DefaultSweepCacheCapacity is the default bound on retained completed
// sweeps. Each entry holds one Characterization (records plus cells —
// tens of kilobytes), so the default keeps a long-running server's
// result memory in the low megabytes.
const DefaultSweepCacheCapacity = 64

// sweepEntry is one keyed query: in flight until ready is closed, then
// a completed result. Result fields are written by the leading
// goroutine before close(ready) and read only after observing the
// close, so they need no lock.
type sweepEntry struct {
	ready chan struct{}
	c     Characterization
	err   error

	mu      sync.Mutex
	subs    map[int]func(done, skipped, total int)
	nextSub int
	done    bool
	cancel  context.CancelFunc // cancels the run when the last subscriber leaves

	elem *list.Element // position in sweepCache.lru once retained; guarded by sweepCache.mu
}

// subscribe registers a waiter (its progress hook may be nil) and
// returns its id, or -1 when the entry already completed.
func (e *sweepEntry) subscribe(progress func(done, skipped, total int)) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return -1
	}
	id := e.nextSub
	e.nextSub++
	e.subs[id] = progress
	return id
}

// unsubscribe drops a waiter; when the last one leaves a still-running
// entry, the underlying sweep is canceled. Reports whether this call
// was the one that canceled the run.
func (e *sweepEntry) unsubscribe(id int) bool {
	if id < 0 {
		return false
	}
	e.mu.Lock()
	delete(e.subs, id)
	last := len(e.subs) == 0 && !e.done
	e.mu.Unlock()
	if last {
		e.cancel()
	}
	return last
}

// broadcast fans one progress update out to every subscribed waiter.
// It is the entry's SweepOptions.Progress hook, so it is called
// concurrently from pool workers; subscriber hooks must be
// goroutine-safe, exactly as SweepOptions.Progress demands.
func (e *sweepEntry) broadcast(done, skipped, total int) {
	e.mu.Lock()
	hooks := make([]func(int, int, int), 0, len(e.subs))
	for _, h := range e.subs {
		if h != nil {
			hooks = append(hooks, h)
		}
	}
	e.mu.Unlock()
	for _, h := range hooks {
		h(done, skipped, total)
	}
}

// sweepCache is the process-wide keyed cache. entries holds in-flight
// and retained entries; lru lists the retained (completed) keys, most
// recently hit at the front, and is never longer than capacity.
type sweepCache struct {
	mu       sync.Mutex
	entries  map[string]*sweepEntry
	lru      *list.List // of string keys
	capacity int
}

var globalSweepCache = newSweepCache()

func newSweepCache() *sweepCache {
	return &sweepCache{
		entries:  make(map[string]*sweepEntry),
		lru:      list.New(),
		capacity: DefaultSweepCacheCapacity,
	}
}

// evictLocked drops least-recently-hit retained entries until the
// capacity bound holds.
func (c *sweepCache) evictLocked() {
	for c.lru.Len() > c.capacity {
		delete(c.entries, c.lru.Remove(c.lru.Back()).(string))
		ctrCacheEvicted.Inc()
	}
}

// runFunc computes one characterization; the cache supplies the
// options (context and progress rewired to the shared entry).
type runFunc func(core.SweepOptions) (Characterization, error)

// do serves key from the cache: a completed entry is returned
// immediately (hit), an in-flight identical query is joined
// (coalesced), and a missing key starts a run led by a cache-owned
// goroutine (miss). ctx bounds only this caller's wait — abandoning it
// drops one subscription, and the run itself is canceled only when no
// subscriber remains.
func (c *sweepCache) do(ctx context.Context, key string, opts core.SweepOptions, run runFunc) (Characterization, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil { // completed, retained: a pure cache hit
			ctrCacheHit.Inc()
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.c, e.err
		}
		// Identical query in flight: coalesce onto it.
		ctrCacheCoalesced.Inc()
		id := e.subscribe(opts.Progress)
		c.mu.Unlock()
		return waitEntry(ctx, e, id)
	}
	ctrCacheMiss.Inc()
	runCtx, cancel := context.WithCancel(context.Background())
	e := &sweepEntry{
		ready:  make(chan struct{}),
		subs:   make(map[int]func(int, int, int)),
		cancel: cancel,
	}
	id := e.subscribe(opts.Progress) // before the leader starts: the run must not outlive zero subscribers
	c.entries[key] = e
	c.mu.Unlock()
	go c.lead(key, e, runCtx, opts, run)
	return waitEntry(ctx, e, id)
}

// lead executes the sweep for a fresh entry and publishes the result:
// healthy complete runs are retained (evicting over capacity), partial
// or failed runs are dropped from the map so the next identical query
// re-sweeps. The caller's own cancellation context is ignored here —
// the run obeys runCtx, which ends when the last subscriber leaves.
func (c *sweepCache) lead(key string, e *sweepEntry, runCtx context.Context, opts core.SweepOptions, run runFunc) {
	ropts := opts
	ropts.Context = runCtx
	ropts.Progress = e.broadcast
	res, err := run(ropts)
	e.mu.Lock()
	e.done = true
	e.mu.Unlock()
	e.c, e.err = res, err
	keep := err == nil && !res.Partial()
	c.mu.Lock()
	if c.entries[key] == e { // not invalidated mid-run
		if keep {
			e.elem = c.lru.PushFront(key)
			c.evictLocked()
		} else {
			delete(c.entries, key)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	e.cancel() // release the context; the run has already returned
}

// waitEntry blocks until the entry completes or the caller's context
// ends, whichever is first. A caller whose departure cancels the run
// (it was the last subscriber) collects the canceled run's partial
// result instead of discarding it: the sweep returns promptly once its
// context ends, carrying every cell completed before the cutoff, which
// is what lets a deadline_ms request still render a partial report.
func waitEntry(ctx context.Context, e *sweepEntry, id int) (Characterization, error) {
	select {
	case <-e.ready:
		e.unsubscribe(id)
		return e.c, e.err
	case <-ctx.Done():
		if e.unsubscribe(id) {
			// Bounded: a healthy sweep returns within one job's tail of
			// cancellation, but a kernel hung with no watchdog armed never
			// returns — fall back to the bare context error rather than
			// wedging this caller alongside the stuck worker.
			select {
			case <-e.ready:
				return e.c, e.err
			case <-time.After(cancelCollectGrace):
			}
		}
		return Characterization{}, ctx.Err()
	}
}

// cancelCollectGrace bounds how long a departing last subscriber waits
// for its canceled run to land a partial result in waitEntry.
const cancelCollectGrace = 2 * time.Second

// invalidate empties the cache. In-flight entries are detached — the
// callers waiting on them still get their results, but the results are
// not retained.
func (c *sweepCache) invalidate() {
	c.mu.Lock()
	c.entries = make(map[string]*sweepEntry)
	c.lru = list.New()
	c.mu.Unlock()
}

// SetSweepCacheCapacity bounds how many completed sweeps the keyed
// cache retains (minimum one). Lowering it evicts the least recently
// hit entries at once; it never interrupts in-flight runs. entobenchd
// exposes this as -cachecap.
func SetSweepCacheCapacity(n int) {
	c := globalSweepCache
	c.mu.Lock()
	c.capacity = max(n, 1)
	c.evictLocked()
	c.mu.Unlock()
}

// RunSweepQuery is the cached way to characterize: it returns the
// characterization of the given kernel set on the given boards (the
// default is core.Suite() on mcu.TableIVSet()) through the keyed cache: served from a completed
// entry when an identical query already ran, coalesced onto an
// identical in-flight run, or computed fresh. Options shape only a
// cache-filling run (the worker count never changes the result); a
// caller's Progress hook is honored for in-flight runs it leads or
// joins, and not invoked on a pure cache hit. Callers must treat the
// shared records as read-only.
func RunSweepQuery(specs []core.Spec, archs []mcu.Arch, opts core.SweepOptions) (Characterization, error) {
	// The backend is part of the query identity: a trace-backed sweep
	// and the classic sweep of the same grid must never share an entry.
	// The classic path (nil or canonical simulator) contributes nothing,
	// preserving every pre-seam key.
	key := SweepKey(specs, archs, harness.DefaultConfig(), harness.BackendSalt(opts.Backend))
	return globalSweepCache.do(opts.Context, key, opts, func(ropts core.SweepOptions) (Characterization, error) {
		recs, err := core.CharacterizeSuiteOpts(specs, archs, ropts)
		return Characterization{Records: recs}, err
	})
}

// SweepQueryPresent reports whether the keyed cache already holds an
// entry — completed or in flight — for the given query. The server's
// admission controller uses it to let warm and coalescible requests
// through for free: only queries that would start a fresh sweep consume
// admission capacity.
func SweepQueryPresent(specs []core.Spec, archs []mcu.Arch, be harness.Backend) bool {
	key := SweepKey(specs, archs, harness.DefaultConfig(), harness.BackendSalt(be))
	globalSweepCache.mu.Lock()
	_, ok := globalSweepCache.entries[key]
	globalSweepCache.mu.Unlock()
	return ok
}

// InvalidateCharacterization empties the keyed sweep cache so the next
// identical query recomputes — the explicit invalidation hook for
// tests and for callers that mutate the modeled cost parameters.
// Queries already in flight complete for their waiters but are not
// retained.
func InvalidateCharacterization() {
	globalSweepCache.invalidate()
}
