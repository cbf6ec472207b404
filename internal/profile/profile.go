// Package profile records dynamic operation counts for benchmark kernels.
//
// EntoBench characterizes kernels by their instruction mix — floating-point
// (F), integer (I), memory (M), and branch (B) operations — because FLOP
// tallies alone badly mispredict latency and energy on microcontrollers
// (Case Study #3 of the paper). On real hardware the mix comes from binary
// instrumentation; here it is recorded live by the instrumented scalar and
// matrix layers while a kernel executes.
//
// Records are goroutine-scoped: Collect attaches a profiling session
// to the calling goroutine (see session.go), so distinct
// goroutines can profile concurrently without cross-talk — the property
// the parallel characterization sweep builds on. Within one goroutine
// the profiler keeps its original shape: a stack of active records with
// cheap increment fast paths, and a single gate check per hook when no
// profiling is active anywhere. One session still serves exactly one
// goroutine (an MCU has one core, so a kernel ROI never spans
// goroutines); goroutines spawned inside a ROI are not supported.
package profile

// Counts is one instruction-mix record: the number of floating-point,
// integer, memory, and branch operations observed while it was active.
type Counts struct {
	F uint64 // floating-point arithmetic ops
	I uint64 // integer arithmetic ops (incl. fixed-point)
	M uint64 // memory load/store ops
	B uint64 // branches / compares
}

// Total returns the sum of all operation classes.
func (c Counts) Total() uint64 { return c.F + c.I + c.M + c.B }

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.F += other.F
	c.I += other.I
	c.M += other.M
	c.B += other.B
}

// Sub returns c minus other, element-wise. Callers use it to delimit a
// region of interest between two snapshots.
func (c Counts) Sub(other Counts) Counts {
	return Counts{F: c.F - other.F, I: c.I - other.I, M: c.M - other.M, B: c.B - other.B}
}

// ScaleRound scales v by k and rounds half away from zero. It is the
// single rounding rule every op-count rescale in the repo shares —
// Counts.Scale here and the per-ISA static-mix adjustment in
// internal/mcu — so modeled mixes never drift low under truncation at
// non-integral k.
func ScaleRound(v uint64, k float64) uint64 {
	x := float64(v) * k
	if x <= 0 {
		return 0
	}
	return uint64(x + 0.5)
}

// Scale returns c with every class multiplied by k, rounding half away
// from zero. Used by kernels that model vectorized inner loops (e.g. the
// USADA8-based bbof-vec variant); rounding rather than truncating keeps
// modeled mixes from drifting low at non-integral k.
func (c Counts) Scale(k float64) Counts {
	return Counts{
		F: ScaleRound(c.F, k), I: ScaleRound(c.I, k),
		M: ScaleRound(c.M, k), B: ScaleRound(c.B, k),
	}
}

// Active reports whether the calling goroutine has a profiling record
// attached.
func Active() bool { return current() != nil }

// Collect runs fn with a fresh record active on the calling goroutine
// and returns the resulting counts. Any enclosing record is suspended
// for the duration and then credited with fn's counts, so nested
// Collects compose additively. Collects on distinct goroutines are
// fully isolated from one another.
func Collect(fn func()) Counts {
	s := ensureSession()
	rec := s.push()
	defer func() {
		if s.pop() {
			s.drop()
		}
	}()
	fn()
	return *rec
}

// AddF records n floating-point operations.
func AddF(n uint64) {
	if s := current(); s != nil {
		s.top.F += n
	}
}

// AddI records n integer operations.
func AddI(n uint64) {
	if s := current(); s != nil {
		s.top.I += n
	}
}

// AddM records n memory operations.
func AddM(n uint64) {
	if s := current(); s != nil {
		s.top.M += n
	}
}

// AddB records n branch operations.
func AddB(n uint64) {
	if s := current(); s != nil {
		s.top.B += n
	}
}

// AddCounts credits a whole pre-computed mix to the active record.
// Kernels whose inner loops are modeled analytically (rather than hooked
// op-by-op) use this to charge their cost in one call.
func AddCounts(c Counts) {
	if s := current(); s != nil {
		s.top.Add(c)
	}
}
