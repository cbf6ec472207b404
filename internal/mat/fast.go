package mat

// Bulk-accounting fast paths.
//
// The generic kernels in this package charge the profiler inside their
// inner loops: every element access is a hooked At/Set and every
// arithmetic step a hooked scalar method, so a matrix-heavy Solve pays
// one goroutine-session lookup per operation. The fast paths remove
// that cost without changing a single recorded count: they run the
// identical loop on raw float32/float64 values and charge the exact
// aggregate F/I/M/B mix — the same op-by-op sum the hooked loop would
// have produced, priced from scalar.FloatOpCosts — in one
// profile.AddCounts call.
//
// One rule picks the body, here and in every package that has native
// twins of its own (control's QP solve, pose's Jacobian, reprojection
// and Sampson error): F32 and F64 take the native bodies; fixed.Num,
// custom Real types and reference mode (SetReferenceKernels(true)) take
// the hooked generic bodies, which are the oracle the native ones are
// tested against. Fixed point runs only in Case Study #2's attitude
// filters, so a fixed-point copy of every loop would buy host time on
// that one study at the price of twice the code. Transpose, which
// moves elements and does no arithmetic, is the one bulk path every T
// shares.
//
// Exactness is the invariant that makes this safe: Case Study #3 of the
// paper shows the F/I/M/B mix, not FLOPs alone, predicts latency and
// energy, so the counts may not drift by even one op. Differential tests
// (fast_test.go, oracle_test.go, and the suite-level test in
// internal/report) assert the native bodies produce bit-identical
// numeric results and byte-identical Counts against the hooked
// reference.

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/profile"
	"repro/internal/scalar"
)

// refKernels forces the hooked generic loops when set; the fast paths
// check it once per matrix operation.
var refKernels atomic.Bool

// SetReferenceKernels switches this package between its bulk fast paths
// (false, the default) and the hooked generic reference loops (true),
// returning the previous setting. The reference mode exists as the
// oracle the fast paths are differentially tested against; both modes
// produce identical numeric results and identical profiled counts.
func SetReferenceKernels(on bool) (prev bool) {
	return refKernels.Swap(on)
}

// ReferenceKernels reports whether the hooked generic reference loops
// are active.
func ReferenceKernels() bool { return refKernels.Load() }

// fastKernels gates every fast-path dispatch.
func fastKernels() bool { return !refKernels.Load() }

// native is the constraint for scalar types whose arithmetic compiles to
// machine float instructions (F32, F64).
type native interface{ ~float32 | ~float64 }

// nativeOf reports whether T takes the native bodies: T is F32 or F64
// and reference mode is off.
func nativeOf[T scalar.Real[T]]() bool {
	if !fastKernels() {
		return false
	}
	var z T
	switch any(z).(type) {
	case scalar.F32, scalar.F64:
		return true
	}
	return false
}

// --- element-wise slice kernels ---

func ewAddNat[F native](a, b []F) []F {
	out := make([]F, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

func ewSubNat[F native](a, b []F) []F {
	out := make([]F, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func ewScaleNat[F native](a []F, s F) []F {
	out := make([]F, len(a))
	for i := range a {
		out[i] = a[i] * s
	}
	return out
}

func ewNegNat[F native](a []F) []F {
	out := make([]F, len(a))
	for i := range a {
		out[i] = -a[i]
	}
	return out
}

func dotNat[F native](a, b []F) F {
	var acc F
	for i := range a {
		acc = acc + a[i]*b[i]
	}
	return acc
}

func frobNat[F native](a []F) F {
	var acc F
	for _, v := range a {
		acc = acc + v*v
	}
	return F(math.Sqrt(float64(acc)))
}

func maxAbsNat[F native](a []F) F {
	var best F
	for _, v := range a {
		if v < 0 {
			v = -v
		}
		if best < v {
			best = v
		}
	}
	return best
}

func mulNat[F native](a, b, out []F, r, k, c int) {
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			var acc F
			for kk := 0; kk < k; kk++ {
				acc = acc + a[i*k+kk]*b[kk*c+j]
			}
			out[i*c+j] = acc
		}
	}
}

func mulVecNat[F native](a, v, out []F, r, k int) {
	for i := 0; i < r; i++ {
		var acc F
		for kk := 0; kk < k; kk++ {
			acc = acc + a[i*k+kk]*v[kk]
		}
		out[i] = acc
	}
}

// tMulVecNat is mulVecNat over the transpose of the r×k matrix a, read
// in place: out[j] sums a[kk][j]·v[kk] for kk ascending.
func tMulVecNat[F native](a, v, out []F, r, k int) {
	for j := 0; j < k; j++ {
		var acc F
		for kk := 0; kk < r; kk++ {
			acc = acc + a[kk*k+j]*v[kk]
		}
		out[j] = acc
	}
}

// --- slice-level dispatchers, shared by Mat and Vec methods ---
//
// Each dispatcher runs the native kernel and charges the exact mix of
// the hooked loop it replaces: the scalar-op term priced from
// scalar.FloatOpCosts times the op count, plus the explicit AddM/AddI/AddB
// charges of the generic code, in one profile.AddCounts call.

// chargeEW is the arithmetic term of one element-wise pass: every
// element pays each listed op cost once, on top of extraM memory ops.
func chargeEW(n uint64, extraM uint64, costs ...profile.Counts) {
	var cnt profile.Counts
	for _, c := range costs {
		cnt.Add(scalar.ScaleCounts(c, n))
	}
	cnt.M += extraM
	profile.AddCounts(cnt)
}

// fastAddSlice is the bulk path of Mat.Add and Vec.Add: out[i] =
// a[i]+b[i], charged as n Adds plus the 3n memory ops of the hooked
// loop.
func fastAddSlice[T scalar.Real[T]](a, b []T) ([]T, bool) {
	n := uint64(len(a))
	var d any
	switch ad := any(a).(type) {
	case []scalar.F32:
		d = ewAddNat(ad, any(b).([]scalar.F32))
	case []scalar.F64:
		d = ewAddNat(ad, any(b).([]scalar.F64))
	default:
		return nil, false
	}
	chargeEW(n, 3*n, scalar.FloatOpCosts.Add)
	return d.([]T), true
}

// fastSubSlice mirrors fastAddSlice for subtraction.
func fastSubSlice[T scalar.Real[T]](a, b []T) ([]T, bool) {
	n := uint64(len(a))
	var d any
	switch ad := any(a).(type) {
	case []scalar.F32:
		d = ewSubNat(ad, any(b).([]scalar.F32))
	case []scalar.F64:
		d = ewSubNat(ad, any(b).([]scalar.F64))
	default:
		return nil, false
	}
	chargeEW(n, 3*n, scalar.FloatOpCosts.Sub)
	return d.([]T), true
}

// fastScaleSlice: out[i] = a[i]*s, charged as n Muls plus 2n memory ops.
func fastScaleSlice[T scalar.Real[T]](a []T, s T) ([]T, bool) {
	n := uint64(len(a))
	var d any
	switch ad := any(a).(type) {
	case []scalar.F32:
		d = ewScaleNat(ad, any(s).(scalar.F32))
	case []scalar.F64:
		d = ewScaleNat(ad, any(s).(scalar.F64))
	default:
		return nil, false
	}
	chargeEW(n, 2*n, scalar.FloatOpCosts.Mul)
	return d.([]T), true
}

// fastNegSlice: out[i] = -a[i], charged as n Negs plus 2n memory ops.
func fastNegSlice[T scalar.Real[T]](a []T) ([]T, bool) {
	n := uint64(len(a))
	var d any
	switch ad := any(a).(type) {
	case []scalar.F32:
		d = ewNegNat(ad)
	case []scalar.F64:
		d = ewNegNat(ad)
	default:
		return nil, false
	}
	chargeEW(n, 2*n, scalar.FloatOpCosts.Neg)
	return d.([]T), true
}

// fastDotSlice: Σ a[i]*b[i], charged as n Adds + n Muls plus 2n memory
// ops.
func fastDotSlice[T scalar.Real[T]](a, b []T) (T, bool) {
	n := uint64(len(a))
	var v any
	switch ad := any(a).(type) {
	case []scalar.F32:
		v = dotNat(ad, any(b).([]scalar.F32))
	case []scalar.F64:
		v = dotNat(ad, any(b).([]scalar.F64))
	default:
		var zero T
		return zero, false
	}
	chargeEW(n, 2*n, scalar.FloatOpCosts.Add, scalar.FloatOpCosts.Mul)
	return v.(T), true
}

// fastFrobSlice: sqrt(Σ a[i]²), charged as n Adds + n Muls + one Sqrt
// plus n memory ops.
func fastFrobSlice[T scalar.Real[T]](a []T) (T, bool) {
	n := uint64(len(a))
	var v any
	switch ad := any(a).(type) {
	case []scalar.F32:
		v = frobNat(ad)
	case []scalar.F64:
		v = frobNat(ad)
	default:
		var zero T
		return zero, false
	}
	costs := scalar.FloatOpCosts
	var cnt profile.Counts
	cnt.Add(scalar.ScaleCounts(costs.Add, n))
	cnt.Add(scalar.ScaleCounts(costs.Mul, n))
	cnt.Add(costs.Sqrt)
	cnt.M += n
	profile.AddCounts(cnt)
	return v.(T), true
}

// fastMaxAbsSlice: max |a[i]|, charged as n Abs + n compares plus n
// memory ops.
func fastMaxAbsSlice[T scalar.Real[T]](a []T) (T, bool) {
	n := uint64(len(a))
	var v any
	switch ad := any(a).(type) {
	case []scalar.F32:
		v = maxAbsNat(ad)
	case []scalar.F64:
		v = maxAbsNat(ad)
	default:
		var zero T
		return zero, false
	}
	chargeEW(n, n, scalar.FloatOpCosts.Abs, scalar.FloatOpCosts.Cmp)
	return v.(T), true
}

// fastTranspose is the bulk path of Mat.Transpose. The loop moves
// elements without touching scalar arithmetic, so one implementation
// serves every T; the charge is the hooked loop's per-element At+Set
// pair.
func fastTranspose[T scalar.Real[T]](m Mat[T]) Mat[T] {
	t := Zeros[T](m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.d[j*m.rows+i] = m.d[i*m.cols+j]
		}
	}
	n := uint64(len(m.d))
	profile.AddCounts(profile.Counts{M: 2 * n, I: 2 * n})
	return t
}

// fastMul is the bulk path of Mat.Mul: a native r×k · k×c triple loop,
// charged as r·c·k multiply-accumulates plus the hooked loop's explicit
// memory/index/branch terms.
func fastMul[T scalar.Real[T]](m, b Mat[T]) (Mat[T], bool) {
	r, k, c := m.rows, m.cols, b.cols
	var d any
	switch md := any(m.d).(type) {
	case []scalar.F32:
		out := make([]scalar.F32, r*c)
		mulNat(md, any(b.d).([]scalar.F32), out, r, k, c)
		d = out
	case []scalar.F64:
		out := make([]scalar.F64, r*c)
		mulNat(md, any(b.d).([]scalar.F64), out, r, k, c)
		d = out
	default:
		return Mat[T]{}, false
	}
	costs := scalar.FloatOpCosts
	mac := uint64(r) * uint64(c) * uint64(k)
	var cnt profile.Counts
	cnt.Add(scalar.ScaleCounts(costs.Add, mac))
	cnt.Add(scalar.ScaleCounts(costs.Mul, mac))
	cnt.M += 2*mac + uint64(r*c)
	cnt.I += mac
	cnt.B += uint64(r * c * (1 + k/4))
	profile.AddCounts(cnt)
	return Mat[T]{rows: r, cols: c, d: d.([]T)}, true
}

// fastMulVec is the bulk path of Mat.MulVec.
func fastMulVec[T scalar.Real[T]](m Mat[T], v Vec[T]) (Vec[T], bool) {
	r, k := m.rows, m.cols
	var d any
	switch md := any(m.d).(type) {
	case []scalar.F32:
		out := make([]scalar.F32, r)
		mulVecNat(md, any([]T(v)).([]scalar.F32), out, r, k)
		d = out
	case []scalar.F64:
		out := make([]scalar.F64, r)
		mulVecNat(md, any([]T(v)).([]scalar.F64), out, r, k)
		d = out
	default:
		return nil, false
	}
	costs := scalar.FloatOpCosts
	mac := uint64(r) * uint64(k)
	var cnt profile.Counts
	cnt.Add(scalar.ScaleCounts(costs.Add, mac))
	cnt.Add(scalar.ScaleCounts(costs.Mul, mac))
	cnt.M += 2*mac + uint64(r)
	cnt.B += uint64(r)
	profile.AddCounts(cnt)
	return Vec[T](d.([]T)), true
}

// fastTMulVec is the bulk path of Mat.TMulVec: the product of
// fastMulVec on mᵀ, charged as fastTranspose's element moves plus
// fastMulVec's mix on the c×r transpose.
func fastTMulVec[T scalar.Real[T]](m Mat[T], v Vec[T]) (Vec[T], bool) {
	r, c := m.rows, m.cols
	if r != len(v) {
		panic(fmt.Sprintf("mat: MulVec shape mismatch %dx%d · %d", c, r, len(v)))
	}
	var d any
	switch md := any(m.d).(type) {
	case []scalar.F32:
		out := make([]scalar.F32, c)
		tMulVecNat(md, any([]T(v)).([]scalar.F32), out, r, c)
		d = out
	case []scalar.F64:
		out := make([]scalar.F64, c)
		tMulVecNat(md, any([]T(v)).([]scalar.F64), out, r, c)
		d = out
	default:
		return nil, false
	}
	costs := scalar.FloatOpCosts
	mac := uint64(r) * uint64(c)
	var cnt profile.Counts
	cnt.Add(scalar.ScaleCounts(costs.Add, mac))
	cnt.Add(scalar.ScaleCounts(costs.Mul, mac))
	cnt.M += 2*mac + 2*mac + uint64(c) // transpose moves, then the mat-vec
	cnt.I += 2 * mac
	cnt.B += uint64(c)
	profile.AddCounts(cnt)
	return Vec[T](d.([]T)), true
}
