package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/profile"
)

// Parallel, fault-tolerant characterization engine. The kernel
// executions of the Table III/IV sweep are independent — every kernel
// builds its own problem instance from the spec factory, all dataset
// generators seed local RNGs, and the profiler records into
// goroutine-scoped sessions — so the sweep fans them out across a
// bounded worker pool. Each execution stays a single goroutine (a
// simulated MCU is single-core; its ROI must not be split), so the
// parallelism is across kernel executions.
//
// The kernel execution itself — problem build, warm-up, the profiled
// ROI invocation, validation — runs once per kernel through the
// execution table (ExecTable); every (arch, cache) cell derives its
// measurement from the shared counts with pure arithmetic
// (harness.Prepared.MeasureOn), and the static job of a kernel without
// a StaticFactory compresses its profiled warm-up. Workers therefore
// take whole groups of jobs, one group per execution: a kernel's
// static job followed by its cells (the static job leads the prepare,
// the cells reuse it), or, for a kernel with a StaticFactory, its
// proxy-run static job and its cells as two groups, so the proxy run
// overlaps the prepare. Counts and validity are arch-independent, so
// grouping changes no assembled byte; each job keeps its serial index,
// which fixes its record slot and error order, and classification, the
// cell cache, the watchdog, progress and spans all stay per job.
//
// Failure model (DESIGN.md §12): a cell that panics, errors, or trips
// the watchdog costs exactly its own slot. Panics are recovered with
// the stack captured (PanicError), the cell is marked with a CellStatus
// and its error, and the sweep keeps going; the aggregate error is a
// deterministic serial-order errors.Join of one CellError per failed
// job. SweepOptions.FailFast restores the historical
// stop-at-first-failure behavior, with abandoned jobs explicitly marked
// CellSkipped instead of left as zero-valued cells. A context
// (SweepOptions.Context) cancels the sweep between jobs and mid-job, so
// the engine returns promptly when it ends — which is how the CLIs turn
// SIGINT into a flushed partial result.
//
// Determinism: every job writes into a pre-assigned slot of the
// pre-sized records slice, so the assembled output is identical — byte
// for byte once rendered — for any worker count, including 1. With the
// watchdog armed the job computes on a child goroutine and only the
// worker commits the result, so an abandoned (timed-out) computation
// can never race the assembly.
//
// Observability: when the sweep's context carries an obs.Recorder
// (obs.WithRecorder), every executed job records an obs span —
// sweep.static or sweep.cell — on its worker's lane with the
// kernel/arch/cache identity and its queue wait (time between sweep
// start, when all jobs are ready, and job pickup), and the whole call
// records one sweep span on lane 0; with no recorder a span site costs
// one nil check. The sweep.cells_* and failure-mode counters are always
// on, and each bump also lands in the recorder's per-sweep tally.
// SweepOptions.Progress, when set, is invoked after every finished or
// skipped job. docs/observability.md is the reference for the span and
// counter vocabulary.

// Sweep failure-mode counters (docs/observability.md).
var (
	// ctrCellsFailed counts jobs that ended in any error: plain
	// failures, recovered panics, and watchdog timeouts (skips excluded).
	ctrCellsFailed = obs.NewCounter(obs.CounterSweepCellsFailed)
	// ctrPanicsRecovered counts kernel panics the sweep converted into
	// per-cell errors.
	ctrPanicsRecovered = obs.NewCounter(obs.CounterSweepPanicsRecovered)
	// ctrCellsTimedOut counts jobs abandoned by the per-cell watchdog.
	ctrCellsTimedOut = obs.NewCounter(obs.CounterSweepCellsTimedOut)
	// ctrCellsCached counts jobs served from SweepOptions.CellCache
	// instead of being executed.
	ctrCellsCached = obs.NewCounter(obs.CounterSweepCellsCached)
	// ctrCellsComputed counts jobs the engine actually executed —
	// everything not cache-served and not skipped, including failures.
	ctrCellsComputed = obs.NewCounter(obs.CounterSweepCellsComputed)
)

// StaticCellResult is the cacheable outcome of one kernel's
// static-proxy job: the compressed op counts of the static solver plus
// the modeled flash footprint.
type StaticCellResult struct {
	Static profile.Counts `json:"static"`
	Flash  int            `json:"flash"`
}

// MeasuredCellResult is the cacheable outcome of one (arch, cache)
// measurement cell. It carries everything the record assembly needs:
// the cell's own model and measurement, plus the arch-independent
// dynamic mix and validation verdict (so a cached reference cell can
// rehydrate the record-level fields). ValidErr is the rendered
// validation error — the export only ever prints it, so a string
// round-trips byte-identically where an error value would not. Name is
// the prepared problem's name: its length seeds trace synthesis, so
// carrying it lets an incremental sweep rehydrate the kernel's shared
// prepare from any cached cell (harness.RehydratePrepared) and measure
// fresh (arch, cache) cells without re-executing the kernel, still
// byte-identically.
type MeasuredCellResult struct {
	Model    mcu.Estimate        `json:"model"`
	Meas     harness.Measurement `json:"meas"`
	Counts   profile.Counts      `json:"counts"`
	Name     string              `json:"name"`
	Valid    bool                `json:"valid"`
	ValidErr string              `json:"valid_err,omitempty"`
}

// CellCache serves and persists per-cell sweep results. The engine
// consults it before executing a job and offers back every cell that
// completed CellOK — failed, panicked, timed-out, and skipped jobs are
// never stored, so a cache can only ever replay a healthy computation.
// Implementations must be safe for concurrent use by pool workers; a
// lookup miss must be cheap. The backend string is the measurement
// backend's cache-key salt (harness.BackendSalt): empty on the classic
// simulated path, non-empty for externally measured cells, so modeled
// and measured results never collide under one key. The canonical
// implementation is report.PersistentCellCache over internal/cellstore.
type CellCache interface {
	// LoadStatic returns the cached static-proxy result of spec, if any.
	LoadStatic(spec Spec) (StaticCellResult, bool)
	// StoreStatic persists a healthy static-proxy result.
	StoreStatic(spec Spec, res StaticCellResult)
	// LoadCell returns the cached (arch, cacheOn) cell of spec measured
	// by the salted backend, if any.
	LoadCell(spec Spec, arch mcu.Arch, cacheOn bool, backend string) (MeasuredCellResult, bool)
	// StoreCell persists a healthy measurement cell under its backend.
	StoreCell(spec Spec, arch mcu.Arch, cacheOn bool, backend string, res MeasuredCellResult)
}

// cellBackend is the resolved measurement backend of one sweep cell:
// the rig that measures it (nil = the reference simulator), the
// provenance labels the record carries, and the cache-key salt. It is
// computed deterministically from the sweep-level backend and the cell
// identity — never persisted — so a cached cell always re-derives the
// same labels it would earn when computed fresh.
type cellBackend struct {
	be     harness.Backend // nil means the simulator
	name   string          // registry name; "" on the classic path
	source string          // harness.SourceModeled / SourceMeasured; "" classic
	salt   string          // harness.BackendSalt contribution to cache keys
}

// resolveCellBackend maps the sweep-level backend selection onto one
// (kernel, arch, cache) cell. A nil sweep backend is the classic path:
// unlabeled, unsalted. A partial backend that doesn't cover the cell
// falls back to the simulator — the cell is labeled "sim"/modeled (the
// sweep was explicitly backend-aware, so every cell states its
// provenance) but keeps the classic empty salt, sharing cached cells
// with classic sweeps byte-identically.
func resolveCellBackend(be harness.Backend, kernel, archName string, cacheOn bool) cellBackend {
	if be == nil {
		return cellBackend{}
	}
	if pb, ok := be.(harness.PartialBackend); ok && !pb.Covers(kernel, archName, cacheOn) {
		return cellBackend{name: "sim", source: harness.SourceModeled}
	}
	return cellBackend{be: be, name: be.Name(), source: be.Source(), salt: harness.BackendSalt(be)}
}

// jobStatic marks a job as the per-kernel static-proxy run rather than
// an (arch, cache) measurement cell.
const jobStatic = -1

// job is one unit of sweep work: either the static-proxy run of a
// kernel (cell == jobStatic) or one (arch, cache) measurement cell.
type job struct {
	spec  int // index into the records slice
	cell  int // index into Records[spec].Cells, or jobStatic
	arch  mcu.Arch
	cache bool
	err   error // a *CellError after a failed run, nil otherwise
}

// SweepOptions configures a characterization sweep beyond the specs and
// architectures themselves. The zero value is the default sweep:
// GOMAXPROCS workers, contained failures, no watchdog, no cancellation.
type SweepOptions struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0). The
	// worker count never changes the assembled records.
	Workers int
	// Progress, when non-nil, is called after every job that finishes
	// or is skipped, with the executed count, the skipped count, and
	// the total; done+skipped reaches total exactly when the sweep
	// drains. It is invoked concurrently from pool workers and must be
	// goroutine-safe ((*obs.Progress).Update qualifies).
	Progress func(done, skipped, total int)
	// FailFast stops dispatching after the first failed job, the
	// historical behavior. Jobs already running finish; jobs not yet
	// started are marked CellSkipped (and reported as skipped to
	// Progress, not silently counted as done). The default — FailFast
	// false — contains each failure to its own cell and runs the sweep
	// to completion.
	FailFast bool
	// CellTimeout, when positive, arms a per-job watchdog: a job that
	// produces no result within the window is abandoned and its cell
	// marked CellTimedOut, so a hung Solve loses its cell, not the
	// sweep. The abandoned computation's goroutine is left to finish
	// (or block) on its own — Go cannot kill it — but it computes on
	// private state and its late result is discarded, never committed.
	// Zero disables the watchdog.
	CellTimeout time.Duration
	// Context, when non-nil, cancels the sweep: jobs not yet started
	// are marked CellSkipped and running jobs are abandoned mid-flight.
	// The aggregate error then includes ctx.Err(), so callers can
	// distinguish cancellation from kernel failures. Nil means
	// context.Background().
	Context context.Context
	// CellCache, when non-nil, serves jobs whose content-identical
	// result a prior run persisted (loaded cells are byte-identical to
	// recomputation) and persists every newly computed CellOK job.
	// Failed, panicked, timed-out, and skipped jobs are never stored.
	// Nil — the default — changes nothing on the hot path.
	CellCache CellCache
	// Backend selects the measurement backend cells run through
	// (harness.Backend). Nil — and the canonical simulator, to which
	// nil is normalized — is the classic synthetic path, byte-identical
	// to every sweep before the seam existed. A non-nil backend labels
	// every cell with its provenance (ArchRun.Backend/Source): cells a
	// partial backend covers are measured by it, the rest fall back to
	// the simulator, which is how one report mixes measured and modeled
	// cells. The backend's identity salts cell-cache keys so modeled
	// and measured results never collide.
	Backend harness.Backend
}

// PanicError is a recovered kernel panic: the panic value plus the
// stack captured at recovery, preserved for post-mortems while keeping
// Error() a single line (the stack would drown an errors.Join).
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value without the stack.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// CellError is the provenance-carrying failure of one sweep job: which
// kernel, on which core and cache setting (zero Arch/Cache for the
// static-proxy job), how it failed, and the underlying error.
type CellError struct {
	Kernel string
	Arch   string // empty for the static-proxy job
	Cache  bool
	Stage  string // "static" or "cell"
	Status CellStatus
	Err    error
}

// Error identifies the cell and the failure on one line.
func (e *CellError) Error() string {
	if e.Stage == StageStatic {
		return fmt.Sprintf("%s [static]: %s: %v", e.Kernel, e.Status, e.Err)
	}
	cache := "nocache"
	if e.Cache {
		cache = "cache"
	}
	return fmt.Sprintf("%s [%s %s]: %s: %v", e.Kernel, e.Arch, cache, e.Status, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As chains.
func (e *CellError) Unwrap() error { return e.Err }

// CellError stages.
const (
	// StageStatic is the per-kernel static-proxy job.
	StageStatic = "static"
	// StageCell is an (arch, cache) measurement job.
	StageCell = "cell"
)

// CellErrors extracts every CellError from a sweep's aggregate error,
// walking errors.Join trees and single wraps. A nil error or one
// carrying no cell failures (for example bare cancellation) yields nil.
func CellErrors(err error) []*CellError {
	var out []*CellError
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if ce, ok := e.(*CellError); ok {
			out = append(out, ce)
			return
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, c := range u.Unwrap() {
				walk(c)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	return out
}

// CharacterizeSuiteOpts is the sweep engine, uncached: Characterize
// against a private table.
func CharacterizeSuiteOpts(specs []Spec, archs []mcu.Arch, opts SweepOptions) ([]Record, error) {
	return new(ExecTable).Characterize(specs, archs, opts)
}

// Characterize is the sweep engine: it characterizes specs across
// archs using a bounded worker pool
// (opts.Workers <= 0 means runtime.GOMAXPROCS(0)) and returns one
// Record per spec, in specs order, with cells in the serial
// (arch-major, cache on/off) order — one row of Tables III and IV per
// spec. Output is identical for every worker count.
//
// Failures are contained per cell: every healthy record is returned in
// full, failed cells carry their CellStatus, and the error aggregates
// one CellError per failed job in serial order (opts.FailFast and
// opts.CellTimeout select fail-fast and watchdog variants).
//
// Each call executes its kernels against t, sharing every execution
// another sweep on t holds or has in flight, and records into the
// context's obs.Recorder, if any.
func (t *ExecTable) Characterize(specs []Spec, archs []mcu.Arch, opts SweepOptions) ([]Record, error) {
	// Selecting the simulator explicitly is the classic path: normalize
	// it to nil so keys, labels, and bytes are identical either way.
	if _, isSim := opts.Backend.(harness.SimBackend); isSim {
		opts.Backend = nil
	}
	sweepStart := time.Now()
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	rec := obs.RecorderFrom(ctx)
	records := make([]Record, len(specs))
	var jobs []job
	// cuts delimits the dispatch groups: group g is jobs[cuts[g]:cuts[g+1]].
	cuts := []int{0}
	for i, spec := range specs {
		records[i] = Record{Spec: spec}
		jobs = append(jobs, job{spec: i, cell: jobStatic})
		if spec.StaticFactory != nil {
			// The proxy run is an execution of its own: a group of its
			// own, so it overlaps the prepare its cells lead.
			cuts = append(cuts, len(jobs))
		}
		n := 0
		for _, arch := range archs {
			if !spec.Fits(arch) {
				continue
			}
			for _, cache := range []bool{true, false} {
				jobs = append(jobs, job{spec: i, cell: n, arch: arch, cache: cache})
				n++
			}
		}
		records[i].Cells = make([]ArchRun, n)
		if len(jobs) > cuts[len(cuts)-1] {
			cuts = append(cuts, len(jobs))
		}
	}
	groups := len(cuts) - 1

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > groups {
		workers = groups
	}

	var failed atomic.Bool
	var done, skipped atomic.Int64
	total := len(jobs)
	progress := func() {
		if opts.Progress != nil {
			opts.Progress(int(done.Load()), int(skipped.Load()), total)
		}
	}
	// run executes serial job j on the given worker lane; every job of
	// a group is classified, cached, watched and reported on its own.
	run := func(j, lane int) {
		if (opts.FailFast && failed.Load()) || ctx.Err() != nil {
			commitSkip(records, &jobs[j], ctx.Err())
			skipped.Add(1)
			progress()
			return
		}
		spec := records[jobs[j].spec].Spec
		var cb cellBackend
		if jobs[j].cell != jobStatic {
			cb = resolveCellBackend(opts.Backend, spec.Name, jobs[j].arch.Name, jobs[j].cache)
		}
		if opts.CellCache != nil {
			if res, hit := loadCachedJob(opts.CellCache, spec, &jobs[j], cb); hit {
				commit(records, &jobs[j], res, CellOK, nil)
				rec.Inc(ctrCellsCached)
				done.Add(1)
				progress()
				return
			}
		}
		start := time.Now()
		res, status, err := executeJob(ctx, t, spec, archs, &jobs[j], opts)
		if rec != nil {
			recordJobSpan(rec, &jobs[j], records, start, sweepStart, lane, status)
		}
		switch status {
		case CellTimedOut:
			rec.Inc(ctrCellsTimedOut)
		case CellPanicked:
			rec.Inc(ctrPanicsRecovered)
		}
		if status != CellSkipped {
			rec.Inc(ctrCellsComputed)
		}
		if status == CellOK && opts.CellCache != nil {
			storeCachedJob(opts.CellCache, spec, &jobs[j], cb, res)
		}
		commit(records, &jobs[j], res, status, err)
		if status == CellSkipped {
			// Canceled mid-job: the result (if any ever comes) is
			// discarded; account it with the other skips.
			skipped.Add(1)
			progress()
			return
		}
		if err != nil {
			jobs[j].err = cellError(spec, &jobs[j], status, err)
			rec.Inc(ctrCellsFailed)
			failed.Store(true)
		}
		done.Add(1)
		progress()
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for g := range idx {
				for j := cuts[g]; j < cuts[g+1]; j++ {
					run(j, lane)
				}
			}
		}(w + 1)
	}
	for g := 0; g < groups; g++ {
		idx <- g
	}
	close(idx)
	wg.Wait()

	// Aggregate every distinct failure once, in serial job order, so the
	// error a caller sees does not depend on worker scheduling; a
	// canceled sweep also carries ctx.Err() so errors.Is(err,
	// context.Canceled) holds.
	var errs []error
	for _, j := range jobs {
		if j.err != nil {
			errs = append(errs, j.err)
		}
	}
	if rec != nil {
		rec.RecordSpan(obs.SpanSweep, sweepStart, time.Now(), 0,
			obs.Arg{Key: "kernels", Val: fmt.Sprint(len(specs))},
			obs.Arg{Key: "jobs", Val: fmt.Sprint(total)},
			obs.Arg{Key: "workers", Val: fmt.Sprint(workers)},
			obs.Arg{Key: "failed", Val: fmt.Sprint(len(errs))},
			obs.Arg{Key: "skipped", Val: fmt.Sprint(skipped.Load())})
	}
	if cerr := ctx.Err(); cerr != nil {
		errs = append(errs, cerr)
	}
	return records, errors.Join(errs...)
}

// cellError wraps a job failure with its full provenance.
func cellError(spec Spec, j *job, status CellStatus, err error) *CellError {
	ce := &CellError{Kernel: spec.Name, Stage: StageCell, Status: status, Err: err}
	if j.cell == jobStatic {
		ce.Stage = StageStatic
	} else {
		ce.Arch = j.arch.Name
		ce.Cache = j.cache
	}
	return ce
}

// jobResult is the computed output of one job, built entirely on the
// goroutine that ran the kernel and committed to the records slice only
// by the worker that owns the job — never by a (possibly abandoned)
// watchdog child — so a timed-out computation cannot race the assembly.
type jobResult struct {
	static   profile.Counts
	flash    int
	run      ArchRun
	counts   profile.Counts // reference-cell dynamic mix
	valid    bool
	validE   error
	prepName string // the prepared problem's name (trace-synthesis seed)
}

// executeJob runs one job with panic isolation. A job whose context can
// end, or that has a watchdog (opts.CellTimeout), computes on a child
// goroutine while the worker waits for its result, the deadline, or
// cancellation — whichever is first — so the sweep returns promptly
// even when a kernel does not. The returned status classifies the
// outcome; err is nil exactly when status is CellOK.
func executeJob(ctx context.Context, tbl *ExecTable, spec Spec, archs []mcu.Arch, j *job, opts SweepOptions) (jobResult, CellStatus, error) {
	if opts.CellTimeout <= 0 && ctx.Done() == nil {
		res, err := computeJob(ctx, tbl, spec, archs, j, opts)
		return classify(ctx, res, err)
	}
	type outcome struct {
		res jobResult
		err error
	}
	// Buffered so an abandoned computation's send never blocks: the
	// child exits (or keeps hanging in the kernel) without holding the
	// channel, and its late result is garbage-collected with it.
	ch := make(chan outcome, 1)
	go func() {
		res, err := computeJob(ctx, tbl, spec, archs, j, opts)
		ch <- outcome{res, err}
	}()
	var expired <-chan time.Time
	if opts.CellTimeout > 0 {
		timer := time.NewTimer(opts.CellTimeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case o := <-ch:
		return classify(ctx, o.res, o.err)
	case <-expired:
		return jobResult{}, CellTimedOut, fmt.Errorf("core: watchdog: no result after %v", opts.CellTimeout)
	case <-ctx.Done():
		return jobResult{}, CellSkipped, ctx.Err()
	}
}

// classify maps a computation's error to its cell status. A job the
// harness abandoned because the sweep context was canceled is a skip,
// not a kernel failure — but only when the context really is canceled,
// so a kernel error that merely wraps context.Canceled still counts as
// its own.
func classify(ctx context.Context, res jobResult, err error) (jobResult, CellStatus, error) {
	switch {
	case err == nil:
		return res, CellOK, nil
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		return res, CellSkipped, err
	case isPanic(err):
		return res, CellPanicked, err
	default:
		return res, CellFailed, err
	}
}

// isPanic reports whether err carries a recovered panic.
func isPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// computeJob executes one sweep job and returns its result without
// touching shared state. A panicking kernel — a mat shape mismatch, a
// buggy user kernel registered via core.Register — is recovered here
// (or inside the execution table) and converted into a PanicError
// carrying the captured stack. Jobs take their kernel executions from
// tbl; cell jobs only run the arch-specific modeling themselves.
func computeJob(ctx context.Context, tbl *ExecTable, spec Spec, archs []mcu.Arch, j *job, opts SweepOptions) (res jobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if j.cell == jobStatic {
		sr, err := tbl.static(ctx, spec, archs, opts.CellCache, opts.Backend)
		res.static, res.flash = sr.Static, sr.Flash
		return res, err
	}
	pp, err := tbl.prepare(ctx, spec, archs, opts.CellCache, opts.Backend)
	if err != nil {
		return res, fmt.Errorf("core: run %s on %s: %w", spec.Name, j.arch.Name, err)
	}
	cfg := harness.DefaultConfig()
	cfg.CacheOn = j.cache
	cb := resolveCellBackend(opts.Backend, spec.Name, j.arch.Name, j.cache)
	r, err := pp.MeasureOnBackend(j.arch, spec.Prec, cfg, cb.be)
	if err != nil {
		return res, fmt.Errorf("core: run %s on %s: %w", spec.Name, j.arch.Name, err)
	}
	res.run = ArchRun{Arch: j.arch, CacheOn: j.cache, Model: r.Model, Meas: r.Measured,
		Backend: cb.name, Source: cb.source}
	res.counts, res.valid, res.validE = r.Counts, r.Valid, r.ValidErr
	res.prepName = r.Kernel
	return res, nil
}

// loadCachedJob consults the cell cache for one job and, on a hit,
// rebuilds the exact jobResult the execution would have produced —
// including the arch-independent dynamic mix and validation verdict, so
// a cached reference cell still populates the record-level fields. The
// provenance labels come from the cell's resolved backend, never from
// the cached payload: a cell cached by a classic sweep and loaded by a
// backend-aware one (or vice versa) re-derives the labels this sweep
// would assign.
func loadCachedJob(cc CellCache, spec Spec, j *job, cb cellBackend) (jobResult, bool) {
	var res jobResult
	if j.cell == jobStatic {
		sr, ok := cc.LoadStatic(spec)
		if !ok {
			return res, false
		}
		res.static, res.flash = sr.Static, sr.Flash
		return res, true
	}
	mr, ok := cc.LoadCell(spec, j.arch, j.cache, cb.salt)
	if !ok {
		return res, false
	}
	res.run = ArchRun{Arch: j.arch, CacheOn: j.cache, Model: mr.Model, Meas: mr.Meas,
		Backend: cb.name, Source: cb.source}
	res.counts, res.valid = mr.Counts, mr.Valid
	if mr.ValidErr != "" {
		res.validE = errors.New(mr.ValidErr)
	}
	return res, true
}

// storeCachedJob offers one healthy (CellOK) job result to the cell
// cache under the cell's backend salt. Only healthy results reach here,
// so the cache never learns a partial or failed cell.
func storeCachedJob(cc CellCache, spec Spec, j *job, cb cellBackend, res jobResult) {
	if j.cell == jobStatic {
		cc.StoreStatic(spec, StaticCellResult{Static: res.static, Flash: res.flash})
		return
	}
	mr := MeasuredCellResult{Model: res.run.Model, Meas: res.run.Meas, Counts: res.counts, Name: res.prepName, Valid: res.valid}
	if res.validE != nil {
		mr.ValidErr = res.validE.Error()
	}
	cc.StoreCell(spec, j.arch, j.cache, cb.salt, mr)
}

// commit writes a job's outcome into its pre-assigned record slot. Only
// pool workers call it, one per job, so slots are written exactly once.
func commit(records []Record, j *job, res jobResult, status CellStatus, err error) {
	rec := &records[j.spec]
	if j.cell == jobStatic {
		rec.StaticStatus = status
		if status == CellOK {
			rec.Static, rec.Flash = res.static, res.flash
		} else {
			rec.StaticErr = err
		}
		return
	}
	if status != CellOK {
		rec.Cells[j.cell] = ArchRun{Arch: j.arch, CacheOn: j.cache, Status: status, Err: err}
		return
	}
	rec.Cells[j.cell] = res.run
	if j.cell == 0 {
		// Reference cell: the first (arch, cache-on) run supplies the
		// record-level dynamic mix and validation verdict. Counts and
		// validity are arch-independent (the profiler counts the same
		// deterministic Solve), so any cell would agree; designating one
		// removes the historical last-write-wins ambiguity.
		rec.Dynamic, rec.Valid, rec.ValidE = res.counts, res.valid, res.validE
	}
}

// commitSkip marks a never-started job's slot as skipped; cause is the
// context error when cancellation (rather than fail-fast) skipped it.
func commitSkip(records []Record, j *job, cause error) {
	rec := &records[j.spec]
	if j.cell == jobStatic {
		rec.StaticStatus = CellSkipped
		rec.StaticErr = cause
		return
	}
	rec.Cells[j.cell] = ArchRun{Arch: j.arch, CacheOn: j.cache, Status: CellSkipped, Err: cause}
}

// recordJobSpan records the sweep.static / sweep.cell span of one
// executed job into rec on the given worker lane. Queue wait is the
// time the job sat ready before pickup: all jobs exist when the sweep
// starts, so it is measured from the sweep start to the job's execution
// start.
func recordJobSpan(rec *obs.Recorder, j *job, records []Record, start, sweepStart time.Time, lane int, status CellStatus) {
	end := time.Now()
	queueUS := fmt.Sprintf("%.1f", float64(start.Sub(sweepStart).Microseconds()))
	kernel := records[j.spec].Spec.Name
	args := []obs.Arg{
		{Key: "kernel", Val: kernel},
	}
	if j.cell != jobStatic {
		cache := "off"
		if j.cache {
			cache = "on"
		}
		args = append(args,
			obs.Arg{Key: "arch", Val: j.arch.Name},
			obs.Arg{Key: "cache", Val: cache})
	}
	args = append(args, obs.Arg{Key: "queue_wait_us", Val: queueUS})
	if status != CellOK {
		args = append(args, obs.Arg{Key: "status", Val: status.String()})
	}
	name := obs.SpanSweepCell
	if j.cell == jobStatic {
		name = obs.SpanSweepStatic
	}
	rec.RecordSpan(name, start, end, lane, args...)
}
