package mat

// Tests for the scratch arenas behind the solver temporaries: the loan
// contract (zeroed, correctly sized, make-fallback for unpooled types),
// goroutine isolation under concurrent solves (run with -race in CI),
// and the allocations-per-solve budget the arenas exist to enforce.

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/scalar"
)

func TestBorrowSliceZeroedAndSized(t *testing.T) {
	// Dirty a borrowed buffer, return it, and borrow across a range of
	// sizes: every loan must come back zeroed at exactly the requested
	// length regardless of what the pool recycled.
	for _, n := range []int{1, 3, 8, 64, 5, 200, 7} {
		s, h := borrowSlice[scalar.F64](n)
		if len(s) != n {
			t.Fatalf("borrowSlice(%d): len = %d", n, len(s))
		}
		for i := range s {
			if s[i] != 0 {
				t.Fatalf("borrowSlice(%d): element %d not zeroed: %v", n, i, s[i])
			}
			s[i] = scalar.F64(i + 1)
		}
		h.put()
	}
	// Same contract for the int pool used by sort permutations.
	a, ha := borrowSlice[int](16)
	for i := range a {
		a[i] = i * i
	}
	ha.put()
	b, hb := borrowSlice[int](4)
	defer hb.put()
	for i, v := range b {
		if v != 0 {
			t.Fatalf("recycled int buffer not zeroed at %d: %d", i, v)
		}
	}
}

func TestBorrowSliceUnpooledFallback(t *testing.T) {
	// Element types without a pool (fixed.Num, custom types) get a
	// plain make and a no-op handle; put must not panic.
	type custom struct{ a, b float64 }
	s, h := borrowSlice[custom](9)
	if len(s) != 9 {
		t.Fatalf("fallback len = %d", len(s))
	}
	h.put()
	h.put() // zero handle stays a no-op on double put
}

// TestScratchGoroutineIsolation hammers the arena-backed solvers from
// many goroutines at once — the -j8 sweep's access pattern — while each
// goroutine checks its results against a serially computed answer. A
// shared scratch buffer would corrupt a result or trip the race
// detector (CI runs this suite under -race).
func TestScratchGoroutineIsolation(t *testing.T) {
	const n = 6
	var g lcg
	a := FromFloats(scalar.F64(0), spd(&g, n))
	bvals := make([]float64, n)
	for i := range bvals {
		bvals[i] = g.next()
	}
	rhs := VecFromFloats(scalar.F64(0), bvals)
	c, err := LDLTDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Solve(rhs)

	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				// Each iteration exercises both arena consumers: the
				// triangular-solve intermediate and the SVD sort scratch.
				got := c.Solve(rhs)
				for i := range want {
					if got[i] != want[i] {
						errs <- "LDLT solve diverged across goroutines"
						return
					}
				}
				r := SVD(a)
				for j := 1; j < len(r.S); j++ {
					if r.S[j-1].Less(r.S[j]) {
						errs <- "SVD singular values out of order under concurrency"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSolveAllocBudget pins the allocation count of the hot solve path.
// With the scratch arena the only allocation an LDLT solve may make
// is the returned x vector; a regression that reintroduces per-call
// temporaries fails the budget.
func TestSolveAllocBudget(t *testing.T) {
	const n = 8
	var g lcg
	a := FromFloats(scalar.F32(0), spd(&g, n))
	bvals := make([]float64, n)
	for i := range bvals {
		bvals[i] = g.next()
	}
	rhs := VecFromFloats(scalar.F32(0), bvals)
	c, err := LDLTDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	c.Solve(rhs) // warm the pool before counting
	allocs := testing.AllocsPerRun(100, func() { c.Solve(rhs) })
	// 1 for the returned x; 1 of slack for a pool refill after a GC
	// that empties the arena mid-run.
	if allocs > 2 {
		t.Fatalf("LDLT.Solve allocates %.1f times per call, budget is 2", allocs)
	}
}
