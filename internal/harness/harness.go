// Package harness is the evaluation framework around the kernels: the
// EntoProblem-style Problem interface, the driving Runner (repetitions,
// warm-up, cache configuration), the simulated GPIO region-of-interest
// pins, the synthesized inline-current trace, and the analyzer that
// recovers latency, energy, and peak power from trace + GPIO events —
// the software equivalent of the paper's Saleae Logic 2 + STLINK-V3PWR
// setup (see DESIGN.md for the substitution).
package harness

import (
	"context"
	"fmt"

	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/profile"
)

// Harness-level observability counters (docs/observability.md).
var (
	// ctrRuns counts complete measurement runs.
	ctrRuns = obs.NewCounter(obs.CounterHarnessRuns)
	// ctrHostReps counts ROI Solve invocations the host actually
	// executed — one profiled Solve per prepare — as opposed to the
	// analytically scaled rep count the trace reports.
	ctrHostReps = obs.NewCounter(obs.CounterHarnessHostReps)
)

// Problem mirrors the paper's EntoProblem interface: how inputs are
// synthesized or loaded, how the kernel is invoked, and how results are
// validated.
type Problem interface {
	// Name is the suite kernel name.
	Name() string
	// Setup synthesizes or loads the problem inputs (outside the ROI).
	Setup() error
	// Solve runs the kernel once — the measured region of interest.
	Solve()
	// Validate checks the most recent Solve's result.
	Validate() error
}

// Config drives one measurement run (the harness rows of Table II).
type Config struct {
	Reps        int     // modeled kernel invocations inside the ROI (0 = auto)
	Warmup      int     // invocations before the ROI
	CacheOn     bool    // I/D cache configuration
	MinROITimeS float64 // auto-rep target so the 100 kHz probe sees the ROI
	// MaxAutoReps caps the rep count the MinROITimeS auto-scaler may
	// choose (Reps <= 0). Very fast kernels on slow modeled cores would
	// otherwise demand millions of reps to fill the ROI window, which
	// distorts the modeled energy totals without improving the probe's
	// view. 0 means the default (DefaultMaxAutoReps); negative means
	// uncapped. Explicit Reps values are never clamped.
	MaxAutoReps int
}

// DefaultMaxAutoReps is the default ceiling on auto-scaled reps: enough
// for the 100 kHz probe to see hundreds of samples of even the fastest
// kernel, matching the artifact's harness limit.
const DefaultMaxAutoReps = 10000

// DefaultConfig mirrors the artifact's benchmark defaults.
func DefaultConfig() Config {
	return Config{Reps: 0, Warmup: 1, CacheOn: true, MinROITimeS: 2e-3}
}

// GPIO pin assignments, as in the measurement setup: a trigger pin
// starts the power recording, a latency pin brackets the ROI.
const (
	PinTrigger = 0
	PinLatency = 1
)

// GPIOEvent is one logic-analyzer edge.
type GPIOEvent struct {
	Pin    int
	Rising bool
	TimeS  float64
}

// Measurement is what the analyzer recovers from trace + events.
type Measurement struct {
	LatencyS   float64 // per-rep
	EnergyJ    float64 // per-rep
	AvgPowerW  float64
	PeakPowerW float64
	Reps       int
}

// Result is the complete record of one harness run.
type Result struct {
	Kernel    string
	Arch      mcu.Arch
	Precision mcu.Precision
	CacheOn   bool
	Counts    profile.Counts // per-rep operation counts
	Model     mcu.Estimate   // analytic model output
	Measured  Measurement    // measurement-backend output
	Source    string         // provenance of Measured: SourceModeled or SourceMeasured
	Valid     bool
	ValidErr  error
}

// Run executes the full measurement flow for one problem on one core:
// setup → warm-up → ROI (profiled reps) → model → trace synthesis →
// trace analysis → validation.
func Run(p Problem, arch mcu.Arch, prec mcu.Precision, cfg Config) (Result, error) {
	pp, err := Prepare(p, cfg)
	if err != nil {
		return Result{Kernel: p.Name(), Arch: arch, Precision: prec, CacheOn: cfg.CacheOn}, err
	}
	return pp.MeasureOn(arch, prec, cfg)
}

// Prepared is the kernel-execution half of a measurement, detached from
// any particular core: the per-rep operation counts captured by the
// profiled ROI Solve, the counts of the first Solve after Setup, and
// the validation verdict. Counts and validity are arch-independent —
// the profiler counts the same deterministic Solve whichever core is
// modeled — so one Prepared serves every (arch, cache) cell of a kernel
// through MeasureOn, which is pure arithmetic. The characterization
// sweep builds on exactly this split to run each kernel's problem once
// instead of once per cell.
type Prepared struct {
	name     string
	counts   profile.Counts
	first    profile.Counts
	hasFirst bool
	valid    bool
	validE   error
}

// Prepare is PrepareContext without cancellation.
func Prepare(p Problem, cfg Config) (*Prepared, error) {
	return PrepareContext(context.Background(), p, mcu.Arch{}, 0, cfg)
}

// PrepareContext executes the kernel-side phases of a measurement run
// and returns the arch-independent Prepared half: Setup, the warm-up
// Solves, the profiled ROI Solve, and Validate right after it. The
// first Solve after Setup is profiled too — the warm-up, or the ROI
// Solve itself when cfg.Warmup is 0 — and its counts are kept as
// FirstCounts. cfg.Reps does not change how many Solves run: the
// trace synthesizer scales the ROI to the full rep count analytically.
// The sweep passes Warmup 0 for a built-in kernel whose second Solve
// repeats its first, and the default one warm-up Solve for any other
// kernel. refArch and prec are ignored; existing callers still
// pass them. The context is checked at every phase boundary (after
// Setup, between warm-up Solves, before the profiled ROI) and a
// canceled run returns ctx.Err() wrapped. Cancellation is cooperative:
// a Solve that never returns must be cut off by the sweep-level
// watchdog (core.SweepOptions.CellTimeout), not by the context.
func PrepareContext(ctx context.Context, p Problem, refArch mcu.Arch, prec mcu.Precision, cfg Config) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", p.Name(), err)
	}
	if err := p.Setup(); err != nil {
		return nil, fmt.Errorf("harness: setup %s: %w", p.Name(), err)
	}
	pp := &Prepared{name: p.Name(), hasFirst: true}
	for i := 0; i < cfg.Warmup; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("harness: %s: %w", p.Name(), err)
		}
		if i == 0 {
			pp.first = profile.Collect(p.Solve)
		} else {
			p.Solve()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", p.Name(), err)
	}

	// One profiled invocation determines the per-rep op counts; the
	// kernels are deterministic per Solve, so it represents every rep.
	pp.counts = profile.Collect(p.Solve)
	ctrHostReps.Inc()
	if cfg.Warmup <= 0 {
		pp.first = pp.counts
	}

	if err := p.Validate(); err != nil {
		pp.valid = false
		pp.validE = err
	} else {
		pp.valid = true
	}
	return pp, nil
}

// RehydratePrepared reconstructs a Prepared from the arch-independent
// values a prior prepare captured: the problem name (whose length seeds
// trace synthesis, so it must be the name the original run used, not a
// descriptor alias), the profiled per-rep counts, and the validation
// verdict. MeasureOn is a pure function of exactly these, so a
// rehydrated Prepared yields byte-identical measurements on any core
// without executing a single kernel rep — how the sweep's persistent
// cell cache measures new (arch, cache) cells of an already-seen
// kernel.
func RehydratePrepared(name string, counts profile.Counts, valid bool, validE error) *Prepared {
	return &Prepared{name: name, counts: counts, valid: valid, validE: validE}
}

// Counts returns the per-rep operation mix of the profiled ROI Solve.
func (pp *Prepared) Counts() profile.Counts { return pp.counts }

// FirstCounts returns the operation mix of the first Solve after
// Setup. ok is false for a rehydrated Prepared, which executed nothing.
func (pp *Prepared) FirstCounts() (c profile.Counts, ok bool) { return pp.first, pp.hasFirst }

// Valid returns the validation verdict taken after the profiled ROI
// Solve.
func (pp *Prepared) Valid() (bool, error) { return pp.valid, pp.validE }

// MeasureOn models the prepared kernel on one core: analytic estimate,
// rep auto-scaling, trace synthesis, and trace analysis. It executes no
// kernel code — everything is a pure function of the prepared counts —
// so one Prepared can be measured on any number of (arch, cache)
// configurations, concurrently if desired.
func (pp *Prepared) MeasureOn(arch mcu.Arch, prec mcu.Precision, cfg Config) (Result, error) {
	return pp.MeasureOnBackend(arch, prec, cfg, nil)
}

// MeasureOnBackend is MeasureOn with an explicit measurement backend:
// the analytic estimate and rep auto-scaling happen here, then the
// backend turns the resolved request into a Measurement. A nil backend
// means the reference simulator (byte-identical to MeasureOn), whose
// cells carry no Source label — the classic path. A non-nil backend
// stamps its provenance label on the Result.
func (pp *Prepared) MeasureOnBackend(arch mcu.Arch, prec mcu.Precision, cfg Config, be Backend) (Result, error) {
	ctrRuns.Inc()
	res := Result{Kernel: pp.name, Arch: arch, Precision: prec, CacheOn: cfg.CacheOn,
		Counts: pp.counts}
	res.Model = arch.Estimate(pp.counts, prec, cfg.CacheOn)
	reps := autoReps(cfg, res.Model.LatencyS)

	req := MeasureRequest{
		Kernel: pp.name, Arch: arch, Prec: prec, CacheOn: cfg.CacheOn,
		Reps: reps, Model: res.Model, Seed: int64(len(pp.name)),
	}
	var meas Measurement
	var err error
	if be == nil {
		meas, err = SimBackend{}.Measure(req)
	} else {
		meas, err = be.Measure(req)
		res.Source = be.Source()
	}
	if err != nil {
		return res, err
	}
	res.Measured = meas
	res.Valid, res.ValidErr = pp.valid, pp.validE
	return res, nil
}

// autoReps resolves the ROI rep count: an explicit cfg.Reps wins,
// otherwise enough reps to fill MinROITimeS at the modeled latency,
// clamped by MaxAutoReps.
func autoReps(cfg Config, latencyS float64) int {
	if cfg.Reps > 0 {
		return cfg.Reps
	}
	minT := cfg.MinROITimeS
	if minT <= 0 {
		minT = 2e-3
	}
	reps := int(minT/latencyS) + 1
	maxAuto := cfg.MaxAutoReps
	if maxAuto == 0 {
		maxAuto = DefaultMaxAutoReps
	}
	if maxAuto > 0 && reps > maxAuto {
		reps = maxAuto
	}
	return reps
}
