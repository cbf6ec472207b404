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

// ExecTable is the kernel-execution table: each kernel's static-proxy
// run and its prepare (harness.PrepareContext, or RehydratePrepared
// from a cached reference cell), the only sweep work worth sharing —
// every (arch, cache) cell is pure arithmetic on the prepared counts.
// Entries are keyed by kernel descriptor (plus, for a prepare, the
// reference core whose validation-rep schedule it ran) and are
// single-flight: the first job to ask leads on its own goroutine and
// context, later jobs of any sweep wait on their own context. A leader
// whose context ends abandons the entry and a live waiter leads anew.
// Errors and panics reach the current waiters and are never retained.
// An entry holds only {name, counts, verdict} or {static counts,
// flash}, never a problem or its dataset, and past execTableBound
// entries every completed one is dropped. The zero value is ready.
//
// CharacterizeSuiteOpts runs each call against a private table;
// report.RunSweepQuery attaches one process-wide table (WithExecTable).
type ExecTable struct {
	mu sync.Mutex
	m  map[execKey]*execEntry
}

// execTableBound caps a table's entries (a few hundred bytes each).
const execTableBound = 1024

// ctrExecCoalesced counts executions a job received without running
// them: joined in flight or served from the table.
var ctrExecCoalesced = obs.NewCounter(obs.CounterSweepCacheCoalesced)

// execKey identifies one execution: a kernel descriptor plus the
// prepare's reference core; the zero Arch keys the static-proxy run.
type execKey struct {
	name, category, dataset string
	stage                   Stage
	prec                    mcu.Precision
	flops, minSRAMKB        int
	m7Only                  bool
	ref                     mcu.Arch
}

func keyOf(s Spec, ref mcu.Arch) execKey {
	return execKey{name: s.Name, category: s.Category, dataset: s.Dataset, stage: s.Stage,
		prec: s.Prec, flops: s.FLOPs, minSRAMKB: s.MinSRAMKB, m7Only: s.M7Only, ref: ref}
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

type execTableCtxKey struct{}

// WithExecTable returns a context that makes CharacterizeSuiteOpts run
// against t instead of a private table, sharing kernel executions with
// every other sweep on t.
func WithExecTable(ctx context.Context, t *ExecTable) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, execTableCtxKey{}, t)
}

// execTableOf returns the table ctx carries, or a fresh private one.
func execTableOf(ctx context.Context) *ExecTable {
	if t, ok := ctx.Value(execTableCtxKey{}).(*ExecTable); ok {
		return t
	}
	return new(ExecTable)
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
// executions the table neither holds nor has in flight.
func (t *ExecTable) PendingJobs(specs []Spec, archs []mcu.Arch) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range specs {
		jobs, ref := 1, -1
		for i, a := range archs {
			if s.Fits(a) {
				if ref < 0 {
					ref = i
				}
				jobs += 2
			}
		}
		_, held := t.m[keyOf(s, mcu.Arch{})]
		if held && ref >= 0 {
			_, held = t.m[keyOf(s, archs[ref])]
		}
		if !held {
			n += jobs
		}
	}
	return n
}

// static returns spec's static-proxy result: the reduced problem's
// profiled solve, compressed, plus the modeled flash footprint.
func (t *ExecTable) static(ctx context.Context, spec Spec) (StaticCellResult, error) {
	v, err := t.do(ctx, keyOf(spec, mcu.Arch{}), func() (execValue, error) {
		sf := spec.StaticFactory
		if sf == nil {
			sf = spec.Factory
		}
		sp := sf()
		if err := sp.Setup(); err != nil {
			return execValue{}, fmt.Errorf("core: static setup %s: %w", spec.Name, err)
		}
		static := compressStatic(profile.Collect(sp.Solve))
		return execValue{static: StaticCellResult{Static: static, Flash: mcu.FlashBytes(static)}}, nil
	})
	return v.static, err
}

// prepare returns spec's prepared state on reference core ref, first
// trying to rehydrate it from the cached reference cell (ref, cache
// on), so an incremental sweep measures new cells without executing
// the kernel.
func (t *ExecTable) prepare(ctx context.Context, spec Spec, ref mcu.Arch, cc CellCache, be harness.Backend) (*harness.Prepared, error) {
	v, err := t.do(ctx, keyOf(spec, ref), func() (execValue, error) {
		if cc != nil {
			// The rehydrated fields are backend-independent; the key
			// carries whatever salt the reference cell earns this sweep.
			salt := resolveCellBackend(be, spec.Name, ref.Name, true).salt
			if mr, ok := cc.LoadCell(spec, ref, true, salt); ok && mr.Name != "" {
				var validE error
				if mr.ValidErr != "" {
					validE = errors.New(mr.ValidErr)
				}
				return execValue{prep: harness.RehydratePrepared(mr.Name, mr.Counts, mr.Valid, validE)}, nil
			}
		}
		pp, err := harness.PrepareContext(ctx, spec.Factory(), ref, spec.Prec, harness.DefaultConfig())
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
