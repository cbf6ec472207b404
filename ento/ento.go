// Package ento is the public API of the EntoBench reproduction: an
// MCU-ready benchmark suite and evaluation framework for insect-scale
// robotics (Ozturk et al., IISWC 2025).
//
// The suite wraps 31 perception, state-estimation, and control kernels
// behind a uniform Problem interface and characterizes each on modeled
// Cortex-M0+/M4/M33/M7 cores, reporting latency, energy, and peak power
// with caches on and off. See DESIGN.md for how the paper's hardware
// measurement rig maps onto the simulation substrate.
//
// Quick start:
//
//	res, err := ento.Run("madgwick", "M4", true)
//	fmt.Printf("%.1f µs, %.2f µJ\n", res.Measured.LatencyS*1e6, res.Measured.EnergyJ*1e6)
package ento

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/report"
)

// Re-exported framework types: the kernel descriptor, the per-run
// result, the full characterization record, and the core model.
type (
	// Spec describes one suite kernel (name, stage, dataset, factory).
	Spec = core.Spec
	// Record is the cross-architecture characterization of one kernel.
	Record = core.Record
	// Result is one harness run on one core.
	Result = harness.Result
	// Measurement is the trace-derived metric set.
	Measurement = harness.Measurement
	// Problem is the EntoProblem-style benchmark interface; implement
	// it to add kernels (see examples/custom-kernel).
	Problem = harness.Problem
	// Config drives harness runs (reps, warm-up, cache).
	Config = harness.Config
	// Arch is a modeled Cortex-M core.
	Arch = mcu.Arch
	// ModelParams is the serializable cost/power model a board file
	// supplies for an Arch (see DESIGN.md §11 for the schema).
	ModelParams = mcu.ModelParams
	// BoardFile is the on-disk board-definition format consumed by
	// LoadBoards and `entobench sweep -boards`.
	BoardFile = mcu.BoardFile
	// Estimate is the analytic cost-model output.
	Estimate = mcu.Estimate
	// SweepOptions configures a characterization sweep: worker count,
	// progress hook, the per-cell watchdog timeout, a cancellation
	// context (DESIGN.md §12), a persistent cell cache, and a
	// measurement backend. Failures are always contained per cell.
	SweepOptions = core.SweepOptions
	// CellCache serves and persists per-cell sweep results; plug one
	// into SweepOptions.CellCache so overlapping sweeps compute only
	// their delta. OpenCellCache returns the on-disk implementation.
	CellCache = core.CellCache
	// CellError is the provenance-carrying failure of one sweep cell
	// (kernel, arch, cache, stage, status, underlying error).
	CellError = core.CellError
	// CellStatus classifies how a sweep cell ended (ok, failed,
	// panicked, timed_out, skipped).
	CellStatus = core.CellStatus
	// Backend is a measurement backend: ROI events and modeled cost in,
	// Measurement out (see docs/backends.md). The built-in "sim" backend
	// is the synthetic reference rig; TraceBackend replays externally
	// captured current/GPIO traces.
	Backend = harness.Backend
	// MeasureRequest is the resolved input of one Backend measurement.
	MeasureRequest = harness.MeasureRequest
	// TraceCapture is one externally captured cell: waveform, GPIO
	// edges, and the recorded rep count.
	TraceCapture = harness.TraceCapture
)

// Measurement provenance labels (JSONCell.Source, ArchRun.Source).
const (
	SourceModeled  = harness.SourceModeled
	SourceMeasured = harness.SourceMeasured
)

// Pipeline stages of the suite.
const (
	Perception = core.Perception
	Estimation = core.Estimation
	Control    = core.Control
)

// Suite returns every kernel in the curated benchmark suite, in the
// paper's Table III order.
func Suite() []Spec { return core.Suite() }

// Kernel finds a suite kernel by name.
func Kernel(name string) (Spec, bool) { return core.ByName(name) }

// Archs returns every registered core: the modeled references (M0+,
// M4, M33, M7) plus any boards registered or loaded in this process.
func Archs() []Arch { return mcu.All() }

// ArchByName resolves a core by short name ("M4", "m33", a custom
// board's name, ...), case-insensitively.
func ArchByName(name string) (Arch, bool) { return mcu.ByName(name) }

// RegisterArch validates and registers a user-defined board. After
// registration the board resolves everywhere a reference core does:
// ArchByName, Run, ArchSet queries, and sweeps.
func RegisterArch(a Arch) error { return mcu.Register(a) }

// LoadBoards registers every board (and named set) declared in a board
// file — the library form of `entobench sweep -boards FILE`. The file
// is validated as a whole: one bad board registers nothing.
func LoadBoards(path string) ([]Arch, error) { return mcu.LoadFile(path) }

// ArchSet resolves an architecture query: a set name ("tableiv",
// "cs2", "all", or one declared in a board file) or a comma-separated
// list of board names. The empty query is the default Table IV set.
func ArchSet(query string) ([]Arch, error) { return mcu.ResolveArchs(query) }

// RegisterKernel adds an external kernel spec to the suite; it then
// appears in Suite, ByName lookups, and every sweep, after the curated
// Table III rows. A registered kernel's sweep prepare runs one warm-up
// Solve before its profiled ROI Solve, as the paper's harness does.
func RegisterKernel(s Spec) error { return core.Register(s) }

// RegisterBackend adds a measurement backend to the process registry —
// the third registry beside boards and kernels. A registered backend
// resolves by name in BackendByName, `entobench sweep -backend`, and
// the entobenchd wire protocol. "sim" is built in.
func RegisterBackend(be Backend) error { return harness.RegisterBackend(be) }

// BackendByName resolves a registered measurement backend
// case-insensitively.
func BackendByName(name string) (Backend, bool) { return harness.BackendByName(name) }

// Backends lists the registered backend names, sorted.
func Backends() []string { return harness.BackendNames() }

// LoadTraceBackend reads a trace-capture CSV file (docs/backends.md
// documents the schema) into a replay backend. Plug the result into
// SweepOptions.Backend — cells the file covers are measured from the
// captures, the rest fall back to the simulator — or register it for
// by-name selection.
func LoadTraceBackend(path string) (*harness.TraceBackend, error) {
	return harness.LoadTraceBackend(path)
}

// DefaultConfig returns the standard harness configuration.
func DefaultConfig() Config { return harness.DefaultConfig() }

// Run executes one suite kernel on one core through the full
// measurement pipeline (setup → ROI → trace synthesis → analysis →
// validation).
func Run(kernel, archName string, cacheOn bool) (Result, error) {
	spec, ok := core.ByName(kernel)
	if !ok {
		return Result{}, fmt.Errorf("ento: unknown kernel %q", kernel)
	}
	arch, ok := mcu.ByName(archName)
	if !ok {
		return Result{}, fmt.Errorf("ento: unknown architecture %q", archName)
	}
	if !spec.Fits(arch) {
		return Result{}, fmt.Errorf("ento: %s does not fit the %s's %d KB SRAM", kernel, arch.Name, arch.SRAMKB)
	}
	cfg := harness.DefaultConfig()
	cfg.CacheOn = cacheOn
	return harness.Run(spec.Factory(), arch, spec.Prec, cfg)
}

// SynthesizeCaptures prepares one suite kernel and synthesizes its
// trace captures — cache on and cache off — on one core: the cells
// `entobench trace` exports and the trace backend replays. The
// waveforms are exactly what a classic sweep would synthesize for the
// same cells, so replaying them reproduces the modeled measurements.
func SynthesizeCaptures(kernel, archName string) ([]TraceCapture, error) {
	spec, ok := core.ByName(kernel)
	if !ok {
		return nil, fmt.Errorf("ento: unknown kernel %q", kernel)
	}
	arch, ok := mcu.ByName(archName)
	if !ok {
		return nil, fmt.Errorf("ento: unknown architecture %q", archName)
	}
	if !spec.Fits(arch) {
		return nil, fmt.Errorf("ento: %s does not fit the %s's %d KB SRAM", kernel, arch.Name, arch.SRAMKB)
	}
	cfg := harness.DefaultConfig()
	pp, err := harness.Prepare(spec.Factory(), cfg)
	if err != nil {
		return nil, err
	}
	captures := make([]TraceCapture, 0, 2)
	for _, cacheOn := range []bool{true, false} {
		c := cfg
		c.CacheOn = cacheOn
		captures = append(captures, pp.SynthesizeCapture(arch, spec.Prec, c))
	}
	return captures, nil
}

// RunProblem executes a user-provided Problem (a custom kernel) exactly
// as the suite kernels run — the extensibility path of the framework.
func RunProblem(p Problem, archName string, prec mcu.Precision, cfg Config) (Result, error) {
	arch, ok := mcu.ByName(archName)
	if !ok {
		return Result{}, fmt.Errorf("ento: unknown architecture %q", archName)
	}
	return harness.Run(p, arch, prec, cfg)
}

// Characterize measures one kernel across the Table IV cores with
// caches on and off.
func Characterize(kernel string) (Record, error) {
	spec, ok := core.ByName(kernel)
	if !ok {
		return Record{}, fmt.Errorf("ento: unknown kernel %q", kernel)
	}
	recs, err := core.CharacterizeSuiteOpts([]Spec{spec}, mcu.TableIVSet(), SweepOptions{Workers: 1})
	return recs[0], err
}

// Characterization is the full Table III + IV dataset for the suite.
type Characterization = report.Characterization

// Sweep characterizes the full suite across a board selection — the
// Table IV cores (ArchSet("tableiv")), the result of LoadBoards, any
// mix — and is the library's one sweep entry point. It goes through
// report.RunSweepQuery, the process's default sweep engine: repeated
// calls and the table writers below share one memoized result per
// distinct selection, concurrent callers execute each kernel once
// between them, and the result is identical for every worker count.
// The memo key leaves out opts.CellCache: a call answered from the memo
// writes no cells to the cell cache it was passed.
//
// opts carries the worker count, progress reporting, the per-cell
// watchdog, a cancellation context, a persistent cell cache, and a
// measurement backend. A registered kernel that panics or errors
// costs exactly its own cells — the sweep
// completes, healthy records are intact, and the error aggregates one
// CellError per failed cell (extract them with CellErrors). A partial
// result is returned to its caller but never retained in the cache;
// see Characterization.Partial.
func Sweep(archs []Arch, opts SweepOptions) (Characterization, error) {
	return report.RunSweepQuery(core.Suite(), archs, opts)
}

// InvalidateSweep empties the sweep memo — every retained query, not
// just the default sweep — and the kernel-execution table, so the next
// Sweep or table writer executes every kernel again. Call it after
// mutating modeled cost parameters; plain kernel/board registration
// doesn't need it (a changed registry changes the cache key).
func InvalidateSweep() { report.InvalidateCharacterization() }

// OpenCellCache opens (creating if needed) the persistent per-cell
// result cache rooted at dir — the on-disk content-addressed store
// behind every -cachedir flag. Plug the result into
// SweepOptions.CellCache: cells computed by any prior sweep sharing
// the directory load instead of recomputing, byte-identically, and
// every newly computed healthy cell is persisted for the next run.
func OpenCellCache(dir string) (CellCache, error) {
	return report.OpenCellCache(dir)
}

// OpenCellCacheQuota is OpenCellCache with a byte-size bound on the
// backing directory (the implementation behind entobenchd
// -cachequota): past the quota the least-recently-used records are
// garbage-collected, and evicted cells simply recompute on their next
// miss. quota <= 0 means unbounded. The store also self-protects
// against persistent write failure — disk full flips it read-only
// (warm cells keep serving) until a probe write succeeds again; see
// docs/robustness.md.
func OpenCellCacheQuota(dir string, quota int64) (CellCache, error) {
	return report.OpenCellCacheQuota(dir, quota)
}

// CellErrors extracts the per-cell failures from a sweep's aggregate
// error, in deterministic serial sweep order. A nil error — or one that
// is pure cancellation — yields nil.
func CellErrors(err error) []*CellError { return core.CellErrors(err) }

// WriteJSON runs (or reuses) the full suite sweep and writes it as the
// versioned, schema-stable JSON export — the machine-readable
// counterpart of WriteTable3/WriteTable4, and the format cross-run perf
// tooling diffs (see docs/observability.md for the schema and its
// compatibility promise). The bytes are deterministic: identical for
// any worker count and byte-stable under an unmarshal/re-marshal round
// trip.
func WriteJSON(w io.Writer) error {
	c, err := Sweep(mcu.TableIVSet(), SweepOptions{})
	if err != nil {
		return err
	}
	return c.WriteJSON(w)
}

// Precision selectors for RunProblem.
const (
	PrecF32   = mcu.PrecF32
	PrecF64   = mcu.PrecF64
	PrecFixed = mcu.PrecFixed
)

// The paper's tables and figures, regenerated from the live suite.

// WriteTable3 characterizes the whole suite and writes the static
// metrics (Table III).
func WriteTable3(w io.Writer) error {
	c, err := Sweep(mcu.TableIVSet(), SweepOptions{})
	if err != nil {
		return err
	}
	c.WriteTable3(w)
	return nil
}

// WriteTable4 characterizes the whole suite and writes the dynamic
// metrics (Table IV).
func WriteTable4(w io.Writer) error {
	c, err := Sweep(mcu.TableIVSet(), SweepOptions{})
	if err != nil {
		return err
	}
	c.WriteTable4(w)
	return nil
}

// WriteTable5 writes the architecture inventory (Table V).
func WriteTable5(w io.Writer) { report.WriteTable5(w) }

// WriteTable6 runs Case Study #1 and writes the perception
// energy/peak-power table (Table VI).
func WriteTable6(w io.Writer) error {
	r, err := report.RunCS1()
	if err != nil {
		return err
	}
	r.WriteTable6(w)
	return nil
}

// WriteFig3 runs Case Study #1 and writes the cycle-count series
// (Fig 3).
func WriteFig3(w io.Writer) error {
	r, err := report.RunCS1()
	if err != nil {
		return err
	}
	r.WriteFig3(w)
	return nil
}

// WriteTable7 runs Case Study #2 and writes the attitude-filter
// precision/energy table (Table VII).
func WriteTable7(w io.Writer) {
	report.RunCS2Table7().WriteTable7(w)
}

// WriteFig4 runs the fixed-point failure-rate sweep (Fig 4). step
// controls the fraction-bit stride (1 = the paper's full sweep).
func WriteFig4(w io.Writer, step int) {
	report.RunFig4(step).WriteFig4(w)
}

// WriteTable8 runs Case Study #3 and writes the FLOPs-vs-measured table
// (Table VIII).
func WriteTable8(w io.Writer) error {
	r, err := report.RunCS3()
	if err != nil {
		return err
	}
	r.WriteTable8(w)
	return nil
}

// WriteFig5 runs Case Study #4 and writes all relative-pose panels
// (Fig 5). problems sets the batch size per datapoint (the paper uses
// 1000).
func WriteFig5(w io.Writer, problems int) error {
	r, err := report.RunCS4(problems)
	if err != nil {
		return err
	}
	r.WriteFig5(w)
	return nil
}
