package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/profile"
)

// ExecTable is the kernel-execution table: each kernel's prepare
// (harness.PrepareContext, or RehydratePrepared from a cached cell) and,
// where needed, its static-proxy run — the only sweep work worth
// sharing: every (arch, cache) cell is pure arithmetic on the prepared
// counts, and the static job of a kernel without a StaticFactory reads
// the prepare's first-Solve counts. Entries are keyed by kernel
// descriptor alone and are single-flight: the first job to ask leads on
// its own goroutine and context, later jobs of any sweep wait on their
// own context. A leader whose context ends abandons the entry and a
// live waiter leads anew. Errors and panics reach the current waiters
// and are never retained. An entry holds only a *harness.Prepared or
// {static counts, flash}, never a problem or its dataset, and past
// execTableBound entries every completed one is dropped. The zero value
// is ready.
//
// Characterize sweeps against a table; CharacterizeSuiteOpts runs each
// call against a private one, and each report.Engine owns one that all
// its sweeps share.
type ExecTable struct {
	mu sync.Mutex
	m  map[execKey]*execEntry
}

// execTableBound caps a table's entries (a few hundred bytes each).
const execTableBound = 1024

// ctrExecCoalesced counts executions a job received without running
// them: joined in flight or served from the table.
var ctrExecCoalesced = obs.NewCounter(obs.CounterSweepCacheCoalesced)

// execKey identifies one execution: a kernel descriptor, and whether it
// is the kernel's prepare or its static-proxy run.
type execKey struct {
	name, category, dataset string
	stage                   Stage
	prec                    mcu.Precision
	flops, minSRAMKB        int
	m7Only                  bool
	proxy                   bool
}

func keyOf(s Spec, proxy bool) execKey {
	return execKey{name: s.Name, category: s.Category, dataset: s.Dataset, stage: s.Stage,
		prec: s.Prec, flops: s.FLOPs, minSRAMKB: s.MinSRAMKB, m7Only: s.M7Only, proxy: proxy}
}

// execEntry is one execution: in flight until ready closes. val, err
// and abandoned are written by the leader before the close and read
// only after it.
type execEntry struct {
	ready     chan struct{}
	val       execValue
	err       error
	abandoned bool
}

type execValue struct {
	static StaticCellResult
	prep   *harness.Prepared
}

// Reset empties the table. Executions in flight still reach their
// waiters but are not retained.
func (t *ExecTable) Reset() {
	t.mu.Lock()
	t.m = nil
	t.mu.Unlock()
}

// PendingJobs is the sweep engine's job count — one static job per
// kernel plus two cells per fitting board — over the kernels whose
// executions the table neither holds nor has in flight: the prepare,
// and for a kernel with a StaticFactory its static-proxy run (alone
// when no board fits). A rehydrated prepare counts as held although
// its static job may still need a proxy run; that job reads the same
// cell cache first.
func (t *ExecTable) PendingJobs(specs []Spec, archs []mcu.Arch) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range specs {
		cells := 0
		for _, a := range archs {
			if s.Fits(a) {
				cells += 2
			}
		}
		_, held := t.m[keyOf(s, false)]
		if s.StaticFactory != nil {
			_, proxy := t.m[keyOf(s, true)]
			held = proxy && (held || cells == 0)
		}
		if !held {
			n += 1 + cells
		}
	}
	return n
}

// static returns spec's static-proxy result: the compressed counts of
// the first Solve after Setup, plus the modeled flash footprint. A spec
// without a StaticFactory reads them off its prepare; only a
// StaticFactory, or a prepare rehydrated from a cached cell, runs a
// problem of its own.
func (t *ExecTable) static(ctx context.Context, spec Spec, archs []mcu.Arch, cc CellCache, be harness.Backend) (StaticCellResult, error) {
	if spec.StaticFactory == nil {
		pp, err := t.prepare(ctx, spec, archs, cc, be)
		if err != nil {
			return StaticCellResult{}, err
		}
		if first, ok := pp.FirstCounts(); ok {
			return staticResult(first), nil
		}
	}
	v, err := t.do(ctx, keyOf(spec, true), func() (execValue, error) {
		sf := spec.StaticFactory
		if sf == nil {
			sf = spec.Factory
		}
		sp := sf()
		if err := sp.Setup(); err != nil {
			return execValue{}, fmt.Errorf("core: static setup %s: %w", spec.Name, err)
		}
		return execValue{static: staticResult(profile.Collect(sp.Solve))}, nil
	})
	return v.static, err
}

// staticResult compresses a first Solve's counts into the static mix
// and models its flash footprint.
func staticResult(first profile.Counts) StaticCellResult {
	static := compressStatic(first)
	return StaticCellResult{Static: static, Flash: mcu.FlashBytes(static)}
}

// prepare returns spec's prepared state, first trying to rehydrate it
// from any cached cache-on cell of spec on archs, so an incremental
// sweep measures new cells without executing the kernel.
func (t *ExecTable) prepare(ctx context.Context, spec Spec, archs []mcu.Arch, cc CellCache, be harness.Backend) (*harness.Prepared, error) {
	v, err := t.do(ctx, keyOf(spec, false), func() (execValue, error) {
		for _, a := range archs {
			if cc == nil || !spec.Fits(a) {
				continue
			}
			// The rehydrated fields are backend-independent; the key
			// carries whatever salt the cell earns this sweep.
			salt := resolveCellBackend(be, spec.Name, a.Name, true).salt
			if mr, ok := cc.LoadCell(spec, a, true, salt); ok && mr.Name != "" {
				var validE error
				if mr.ValidErr != "" {
					validE = errors.New(mr.ValidErr)
				}
				return execValue{prep: harness.RehydratePrepared(mr.Name, mr.Counts, mr.Valid, validE)}, nil
			}
		}
		cfg := harness.DefaultConfig()
		if spec.oneSolve {
			cfg.Warmup = 0
		}
		pp, err := harness.PrepareContext(ctx, spec.Factory(), mcu.Arch{}, spec.Prec, cfg)
		return execValue{prep: pp}, err
	})
	return v.prep, err
}

// do returns key's execution: retained, joined in flight, or run here
// with this caller as the leader.
func (t *ExecTable) do(ctx context.Context, key execKey, run func() (execValue, error)) (execValue, error) {
	for {
		t.mu.Lock()
		e, joined := t.m[key]
		if !joined {
			if t.m == nil {
				t.m = make(map[execKey]*execEntry)
			}
			e = &execEntry{ready: make(chan struct{})}
			t.m[key] = e
		}
		t.mu.Unlock()
		if !joined {
			t.lead(ctx, key, e, run)
			return e.val, e.err
		}
		select {
		case <-e.ready:
		case <-ctx.Done():
			return execValue{}, ctx.Err()
		}
		if !e.abandoned {
			ctrExecCoalesced.Inc()
			return e.val, e.err
		}
	}
}

// lead runs an entry's execution, recovering a panic as a PanicError,
// and settles it: retained on success, dropped on failure, abandoned
// when the failure is this leader's own context ending.
func (t *ExecTable) lead(ctx context.Context, key execKey, e *execEntry, run func() (execValue, error)) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		e.val, e.err = run()
	}()
	e.abandoned = e.err != nil && ctx.Err() != nil
	t.mu.Lock()
	if t.m[key] == e { // not Reset mid-run
		if e.err != nil {
			delete(t.m, key)
		} else if len(t.m) > execTableBound {
			for k, old := range t.m { // drop every completed entry
				select {
				case <-old.ready:
					delete(t.m, k)
				default:
				}
			}
		}
	}
	t.mu.Unlock()
	close(e.ready)
}
