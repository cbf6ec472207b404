// Package core is EntoBench's registry and characterization engine: the
// curated suite of 31 microcontroller-ready kernels (Table III), each
// wrapped as a harness.Problem with its canonical dataset and
// parameters, plus the cross-architecture characterization runs that
// regenerate the paper's tables and figures.
package core

import (
	"fmt"
	"math"

	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/profile"
)

// Stage is the pipeline stage of a kernel.
type Stage string

// Pipeline stages, abbreviated as in Table III.
const (
	Perception Stage = "P"
	Estimation Stage = "S"
	Control    Stage = "C"
)

// Spec describes one suite kernel.
type Spec struct {
	Name     string
	Stage    Stage
	Category string
	Dataset  string
	Prec     mcu.Precision
	// FLOPs is the static FLOP count claimed in the source literature
	// where Case Study #3 lists one (0 otherwise).
	FLOPs int
	// M7Only marks kernels whose footprint exceeds the M4/M33 SRAM
	// (sift in the paper).
	M7Only bool
	// MinSRAMKB, when set, is the smallest SRAM (KB) the kernel's
	// dataset fits in — the data-driven form of M7Only that also admits
	// user boards with enough memory. Zero means no constraint beyond
	// M7Only.
	MinSRAMKB int
	// Factory builds the canonical benchmark problem.
	Factory func() harness.Problem
	// StaticFactory builds the reduced canonical problem whose dynamic
	// mix serves as the static-instruction-mix proxy (see DESIGN.md);
	// nil means the first Solve of the Factory problem the sweep
	// already executes, so no extra problem is built.
	StaticFactory func() harness.Problem
	// oneSolve marks a built-in whose second Solve repeats its first op
	// for op and leaves Validate's verdict unchanged, so its prepare
	// runs one profiled Solve that serves as warm-up, ROI and first
	// Solve. Unexported: a registered kernel keeps warm-up plus ROI.
	// It is not part of the kernel descriptor the cache keys hash.
	oneSolve bool
}

// Fits reports whether the kernel's dataset fits on the given core.
// A MinSRAMKB bound compares against the board's SRAM, so a custom
// board with enough memory runs even the big kernels; the legacy
// M7Only flag alone restricts to the reference M7.
func (s Spec) Fits(a mcu.Arch) bool {
	if s.MinSRAMKB > 0 {
		return a.SRAMKB >= s.MinSRAMKB
	}
	if s.M7Only {
		return a.Name == "M7"
	}
	return true
}

// CellStatus classifies how one sweep job ended. The zero value is
// CellOK, so records built by hand (fixtures, single runs) read as
// healthy without saying so.
type CellStatus uint8

// Cell outcomes, in escalating order of surprise.
const (
	// CellOK: the job ran and produced a measurement.
	CellOK CellStatus = iota
	// CellFailed: the job returned an error (setup, harness, analysis).
	CellFailed
	// CellPanicked: the kernel panicked; the sweep recovered it.
	CellPanicked
	// CellTimedOut: the per-cell watchdog (SweepOptions.CellTimeout)
	// fired before the job produced a result.
	CellTimedOut
	// CellSkipped: the job never ran — an earlier failure tripped
	// FailFast, or the sweep context was canceled first.
	CellSkipped
)

// String renders the status the way the JSON export spells it.
func (s CellStatus) String() string {
	switch s {
	case CellOK:
		return "ok"
	case CellFailed:
		return "failed"
	case CellPanicked:
		return "panicked"
	case CellTimedOut:
		return "timed_out"
	case CellSkipped:
		return "skipped"
	}
	return fmt.Sprintf("cellstatus(%d)", uint8(s))
}

// ArchRun is one (architecture, cache) characterization cell. A cell
// that did not complete carries its Status and Err with Arch/CacheOn
// still identifying it; its measurement fields are zero and must not be
// read as data (tables render such cells as "—", the JSON export moves
// them to the failures block).
type ArchRun struct {
	Arch    mcu.Arch
	CacheOn bool
	Model   mcu.Estimate
	Meas    harness.Measurement
	// Backend and Source record which measurement backend produced Meas
	// and its provenance label ("modeled" / "measured"). Both are empty
	// on the classic simulated path — a sweep with no explicit backend —
	// and set on every cell of a backend-aware sweep, including the
	// simulator-fallback cells of a partial backend.
	Backend string
	Source  string
	Status  CellStatus
	Err     error
}

// Record is the full characterization of one kernel: static proxy mix,
// dynamic counts, and per-cell metrics. Dynamic, Valid, and ValidE come
// from the record's reference cell — the first (arch, cache-on) run —
// rather than from whichever cell happened to execute last.
//
// StaticStatus/StaticErr report the static-proxy job the same way a
// cell's Status/Err do; when the reference cell did not complete,
// Dynamic/Valid/ValidE stay zero and the cell's own Status says why.
type Record struct {
	Spec         Spec
	Static       profile.Counts // canonical reduced-input mix (per-arch adjust applies)
	Flash        int
	Dynamic      profile.Counts
	Cells        []ArchRun
	Valid        bool
	ValidE       error
	StaticStatus CellStatus
	StaticErr    error
}

// compressStatic maps the reduced-input dynamic mix onto a
// static-instruction-count scale: loops re-execute the same sites, so
// the number of distinct instructions grows sublinearly with the
// dynamic count. The exponent is fit so kernels land in the paper's
// hundreds-to-tens-of-thousands instruction range while preserving both
// the class proportions and the cross-kernel ordering (a modeled proxy;
// see DESIGN.md).
func compressStatic(c profile.Counts) profile.Counts {
	comp := func(v uint64) uint64 {
		if v == 0 {
			return 0
		}
		x := float64(v)
		// x^0.62 maps 1e2..1e7 onto ~2e1..2e4.
		y := math.Pow(x, 0.62)
		if y < 1 {
			y = 1
		}
		return uint64(y)
	}
	return profile.Counts{F: comp(c.F), I: comp(c.I), M: comp(c.M), B: comp(c.B)}
}

// Cell finds the (arch, cache) entry in a record.
func (r Record) Cell(archName string, cacheOn bool) (ArchRun, bool) {
	for _, c := range r.Cells {
		if c.Arch.Name == archName && c.CacheOn == cacheOn {
			return c, true
		}
	}
	return ArchRun{}, false
}
