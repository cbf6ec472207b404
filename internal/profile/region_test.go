package profile

import (
	"sync"
	"testing"
)

// Regions flush into the record that was innermost when they opened.
func TestRegionFlushesIntoOpenRecord(t *testing.T) {
	got := Collect(func() {
		reg := Region()
		reg.AddF(1)
		reg.AddI(2)
		reg.AddM(3)
		reg.AddB(4)
		reg.AddCounts(Counts{F: 10})
		if p := reg.Pending(); p != (Counts{F: 11, I: 2, M: 3, B: 4}) {
			t.Errorf("Pending = %+v", p)
		}
		reg.Close()
	})
	if got != (Counts{F: 11, I: 2, M: 3, B: 4}) {
		t.Errorf("collected = %+v", got)
	}
}

// Closing a region after its Collect has popped the record must drop the
// tallies rather than write into a record the profiler no longer owns.
func TestRegionCloseAfterEndDropsTallies(t *testing.T) {
	var reg Acc
	var rec *Counts
	got := Collect(func() {
		reg = Region()
		rec = reg.rec
		reg.AddF(100)
	})
	reg.Close()
	if got != (Counts{}) || *rec != (Counts{}) {
		t.Errorf("tallies leaked into ended record: %+v", *rec)
	}
	// The goroutine profiles cleanly afterwards.
	if got := Collect(func() { AddF(1) }); got != (Counts{F: 1}) {
		t.Errorf("post-misuse Collect = %+v", got)
	}
}

// Nested regions under nested Collects each flush into their own record,
// and the inner record still credits the outer one on pop.
func TestRegionNestedUnderCollect(t *testing.T) {
	var inner Counts
	outer := Collect(func() {
		regOuter := Region()
		regOuter.AddF(1)
		inner = Collect(func() {
			regInner := Region()
			regInner.AddI(5)
			regInner.Close()
		})
		regOuter.Close()
	})
	if inner != (Counts{I: 5}) {
		t.Errorf("inner = %+v", inner)
	}
	if outer != (Counts{F: 1, I: 5}) {
		t.Errorf("outer = %+v", outer)
	}
}

// A region bound to an inner record that has since been popped must not
// fall back to crediting the (still live) outer record.
func TestRegionStaleRecordDropsTallies(t *testing.T) {
	outer := Collect(func() {
		var stale Acc
		Collect(func() {
			stale = Region()
			stale.AddF(7)
		})
		stale.Close()
	})
	if outer != (Counts{}) {
		t.Errorf("stale region credited outer record: %+v", outer)
	}
}

// A region opened on a goroutine with no profiling session — and the
// zero-value Acc — tally locally and drop everything on Close.
func TestRegionUnprofiledGoroutineIsNoOp(t *testing.T) {
	reg := Region()
	reg.AddF(5)
	reg.AddCounts(Counts{M: 2})
	reg.Close()
	reg.Close()
	var zero Acc
	zero.AddF(1)
	zero.Close()
}

// Close is idempotent and detaches the accumulator: tallies added after
// the first Close die with it.
func TestRegionCloseIdempotent(t *testing.T) {
	got := Collect(func() {
		reg := Region()
		reg.AddF(3)
		reg.Close()
		reg.AddF(99)
		reg.Close()
	})
	if got != (Counts{F: 3}) {
		t.Errorf("collected = %+v", got)
	}
}

// Mirrors the characterization sweep's worker pool: every worker
// profiles its own kernel through a bulk region, interleaved with hooked
// ops. Under -race (the CI bench smoke step) this doubles as the
// data-race probe for the Region fast path.
func TestRegionConcurrentWorkers(t *testing.T) {
	const workers = 16
	var wg sync.WaitGroup
	got := make([]Counts, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = Collect(func() {
				reg := Region()
				for i := 0; i < 1000; i++ {
					reg.AddF(uint64(w))
					reg.AddM(1)
				}
				reg.Close()
				AddB(1)
			})
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		want := Counts{F: uint64(1000 * w), M: 1000, B: 1}
		if got[w] != want {
			t.Errorf("worker %d collected %+v, want %+v", w, got[w], want)
		}
	}
}
