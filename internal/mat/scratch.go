package mat

// Scratch arenas for solver temporaries.
//
// The factorization solvers allocate short-lived working vectors — the
// forward-substitution intermediate of a triangular solve, the column
// norms and permutation of an SVD sort — on every call. Inside the
// characterization harness those calls run thousands of times per
// sweep, and the per-call make churn showed up as a double-digit
// share of sweep time in the memory profile. The pools below let both
// the native fast paths (fast_fact.go, fast_svd.go) and the hooked
// generic solvers (chol.go, qr.go, svd.go, eig.go) borrow those
// temporaries instead.
//
// Only genuinely non-escaping buffers qualify: a slice that is returned
// to the caller or retained by a factorization struct (LU pivots, QR
// rdiag, the x of a solve) must stay a plain make. Borrowed slices are
// zeroed on loan, so swapping make for borrow never changes values —
// and it never changes op counts either, because allocation is not a
// hooked operation. The differential tests against the reference
// kernels therefore pin byte-identical counts across the change.
//
// Concurrency: sync.Pool hands each Get exclusive ownership of its
// buffer until the matching put, so concurrent solvers on different
// goroutines — the -j8 sweep — never share a scratch slice. The
// goroutine-isolation test in scratch_test.go runs this under -race.

import (
	"sync"

	"repro/internal/scalar"
)

// One pool per native element type and one for sort permutations;
// each stores *[]T handles so a put boxes only a pointer (no per-cycle
// interface allocation).
var (
	scratchF32 sync.Pool // *[]scalar.F32
	scratchF64 sync.Pool // *[]scalar.F64
	scratchInt sync.Pool // *[]int
)

// scratchHandle returns a borrowed buffer to its pool. The zero value
// is a no-op, covering element types without a pool.
type scratchHandle struct {
	pool *sync.Pool
	buf  any // the *[]T handle to recycle
}

// put returns the buffer; the borrowed slice must not be used after.
func (h scratchHandle) put() {
	if h.pool != nil {
		h.pool.Put(h.buf)
	}
}

// scratchPoolFor selects the pool backing element type T, or nil when T
// has none (fixed.Num, custom Real types).
func scratchPoolFor[T any]() *sync.Pool {
	var z T
	switch any(z).(type) {
	case scalar.F32:
		return &scratchF32
	case scalar.F64:
		return &scratchF64
	case int:
		return &scratchInt
	}
	return nil
}

// borrowSlice loans a zeroed length-n slice of T from the type's pool,
// growing the pooled buffer when needed. Element types without a pool
// fall back to a plain make with a no-op handle, so callers are generic
// over every Real type.
func borrowSlice[T any](n int) ([]T, scratchHandle) {
	pool := scratchPoolFor[T]()
	if pool == nil {
		return make([]T, n), scratchHandle{}
	}
	var hp *[]T
	if h := pool.Get(); h != nil {
		hp = h.(*[]T)
	} else {
		hp = new([]T)
	}
	if cap(*hp) < n {
		*hp = make([]T, n)
	}
	s := (*hp)[:n]
	clear(s)
	return s, scratchHandle{pool: pool, buf: hp}
}

// borrowVec is borrowSlice for Vec-typed temporaries.
func borrowVec[T scalar.Real[T]](n int) (Vec[T], scratchHandle) {
	s, h := borrowSlice[T](n)
	return Vec[T](s), h
}
