package profile

// Bulk op accounting: a Region hoists the per-hook session lookup out of
// kernel inner loops.
//
// Every package-level hook (AddF &c.) resolves the calling goroutine's
// session — an atomic load, a pprof-label read, and a registry probe.
// That is cheap enough for occasional charges but dominates matrix-heavy
// kernels that charge millions of single ops per Solve. A Region performs
// the lookup once, at open; inside the region the Add methods are plain
// field increments on a stack-local accumulator, and Close folds the
// tallies into the record that was active at open time in one step.
//
// Exactness is preserved by construction: a region charges the same
// classes the per-op hooks would have, just batched, so F/I/M/B totals —
// the quantity the paper's Case Study #3 shows must be exact — are
// unchanged.

// Acc is a bulk operation accumulator bound to one goroutine's profiling
// session. The zero value (and any Acc opened on an unprofiled
// goroutine) is valid: its Add methods tally locally and Close discards
// the tallies.
type Acc struct {
	s   *session
	rec *Counts // innermost record when the region opened
	n   Counts  // local tallies, flushed by Close
}

// Region opens a bulk-accounting region on the calling goroutine. It
// resolves the profiling session once and returns an accumulator whose
// Add methods are hook-free field increments. Close flushes the tallies
// into the record that was innermost at open time.
//
// A region must be opened, used, and closed on one goroutine, inside one
// Collect. Misuse degrades to a no-op rather than corrupting counts: if
// the enclosing record has already been popped when Close runs — or the
// goroutine was never profiled at all — the tallies are dropped, because
// there is no longer a record they legitimately belong to.
func Region() Acc {
	s := current()
	if s == nil {
		return Acc{}
	}
	return Acc{s: s, rec: s.top}
}

// AddF tallies n floating-point operations.
func (a *Acc) AddF(n uint64) { a.n.F += n }

// AddI tallies n integer operations.
func (a *Acc) AddI(n uint64) { a.n.I += n }

// AddM tallies n memory operations.
func (a *Acc) AddM(n uint64) { a.n.M += n }

// AddB tallies n branch operations.
func (a *Acc) AddB(n uint64) { a.n.B += n }

// AddCounts tallies a whole pre-computed mix.
func (a *Acc) AddCounts(c Counts) { a.n.Add(c) }

// Pending returns the tallies accumulated so far but not yet flushed.
func (a *Acc) Pending() Counts { return a.n }

// Close flushes the region's tallies into the record captured at open
// time, provided that record is still live on the session's stack; a
// record already popped (or a region opened on an unprofiled goroutine)
// drops the tallies. Close is idempotent — after the first
// call the accumulator is empty and detached.
func (a *Acc) Close() {
	if a.s != nil {
		// The session is owned by this goroutine, so the stack scan is
		// race-free; after its Collect popped the record (or dropped the
		// whole session) the scan finds nothing and the tallies die here.
		for i := len(a.s.stack) - 1; i >= 0; i-- {
			if a.s.stack[i] == a.rec {
				a.rec.Add(a.n)
				break
			}
		}
	}
	a.s, a.rec, a.n = nil, nil, Counts{}
}
