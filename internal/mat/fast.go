package mat

// Bulk-accounting fast paths.
//
// The generic kernels in this package charge the profiler inside their
// inner loops: every element access is a hooked At/Set and every
// arithmetic step a hooked scalar method, so a matrix-heavy Solve pays
// one goroutine-session lookup per operation — the dominant cost of the
// simulated characterization sweep. The fast paths below remove that
// cost without changing a single recorded count: they type-switch the
// element slice to its native representation (float32/float64 for
// F32/F64, hook-free Quiet arithmetic for fixed.Num), run the identical
// loop on raw values, and charge the exact aggregate F/I/M/B mix — the
// same op-by-op sum the hooked loop would have produced, priced from
// scalar.OpCosts — in a single profile.AddCounts call.
//
// Exactness is the invariant that makes this safe: Case Study #3 of the
// paper shows the F/I/M/B mix, not FLOPs alone, predicts latency and
// energy, so the counts may not drift by even one op. Differential tests
// (fast_test.go, and the suite-level test in internal/report) assert the
// fast paths produce bit-identical numeric results and byte-identical
// Counts against the hooked reference for every kernel and scalar type.
//
// The hooked generic path remains in place as the reference oracle:
// SetReferenceKernels(true) — or ENTOBENCH_REFERENCE_KERNELS=1 in the
// environment — disables every fast path. Scalar types outside the
// built-in family (custom Real implementations) always take the hooked
// path.

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"

	"repro/internal/fixed"
	"repro/internal/profile"
	"repro/internal/scalar"
)

// refKernels forces the hooked generic loops when set; the fast paths
// check it once per matrix operation.
var refKernels atomic.Bool

func init() {
	if os.Getenv("ENTOBENCH_REFERENCE_KERNELS") == "1" {
		refKernels.Store(true)
	}
}

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

// --- element-wise slice kernels, float ---

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

// --- element-wise slice kernels, fixed point ---
//
// The Quiet methods share their implementation with the hooked ones, so
// numerics, saturation, and Status side effects are identical.

func ewAddFix(a, b []fixed.Num) []fixed.Num {
	out := make([]fixed.Num, len(a))
	for i := range a {
		out[i] = a[i].AddQuiet(b[i])
	}
	return out
}

func ewSubFix(a, b []fixed.Num) []fixed.Num {
	out := make([]fixed.Num, len(a))
	for i := range a {
		out[i] = a[i].SubQuiet(b[i])
	}
	return out
}

func ewScaleFix(a []fixed.Num, s fixed.Num) []fixed.Num {
	out := make([]fixed.Num, len(a))
	for i := range a {
		out[i] = a[i].MulQuiet(s)
	}
	return out
}

func ewNegFix(a []fixed.Num) []fixed.Num {
	out := make([]fixed.Num, len(a))
	for i := range a {
		out[i] = a[i].NegQuiet()
	}
	return out
}

func dotFix(a, b []fixed.Num) fixed.Num {
	var acc fixed.Num
	for i := range a {
		acc = acc.AddQuiet(a[i].MulQuiet(b[i]))
	}
	return acc
}

func frobFix(a []fixed.Num) fixed.Num {
	var acc fixed.Num
	for _, v := range a {
		acc = acc.AddQuiet(v.MulQuiet(v))
	}
	return acc.SqrtQuiet()
}

func maxAbsFix(a []fixed.Num) fixed.Num {
	var best fixed.Num
	for _, v := range a {
		x := v.AbsQuiet()
		if best.LessQuiet(x) {
			best = x
		}
	}
	return best
}

func mulFix(a, b, out []fixed.Num, r, k, c int) {
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			var acc fixed.Num
			for kk := 0; kk < k; kk++ {
				acc = acc.AddQuiet(a[i*k+kk].MulQuiet(b[kk*c+j]))
			}
			out[i*c+j] = acc
		}
	}
}

func mulVecFix(a, v, out []fixed.Num, r, k int) {
	for i := 0; i < r; i++ {
		var acc fixed.Num
		for kk := 0; kk < k; kk++ {
			acc = acc.AddQuiet(a[i*k+kk].MulQuiet(v[kk]))
		}
		out[i] = acc
	}
}

func tMulVecFix(a, v, out []fixed.Num, r, k int) {
	for j := 0; j < k; j++ {
		var acc fixed.Num
		for kk := 0; kk < r; kk++ {
			acc = acc.AddQuiet(a[kk*k+j].MulQuiet(v[kk]))
		}
		out[j] = acc
	}
}

// --- slice-level dispatchers, shared by Mat and Vec methods ---
//
// Each dispatcher runs the native kernel and charges the exact mix of
// the hooked loop it replaces: the scalar-op term priced from
// scalar.OpCosts times the op count, plus the explicit AddM/AddI/AddB
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
	case []fixed.Num:
		d = ewAddFix(ad, any(b).([]fixed.Num))
	default:
		return nil, false
	}
	costs, _ := scalar.OpCostsOf[T]()
	chargeEW(n, 3*n, costs.Add)
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
	case []fixed.Num:
		d = ewSubFix(ad, any(b).([]fixed.Num))
	default:
		return nil, false
	}
	costs, _ := scalar.OpCostsOf[T]()
	chargeEW(n, 3*n, costs.Sub)
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
	case []fixed.Num:
		d = ewScaleFix(ad, any(s).(fixed.Num))
	default:
		return nil, false
	}
	costs, _ := scalar.OpCostsOf[T]()
	chargeEW(n, 2*n, costs.Mul)
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
	case []fixed.Num:
		d = ewNegFix(ad)
	default:
		return nil, false
	}
	costs, _ := scalar.OpCostsOf[T]()
	chargeEW(n, 2*n, costs.Neg)
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
	case []fixed.Num:
		v = dotFix(ad, any(b).([]fixed.Num))
	default:
		var zero T
		return zero, false
	}
	costs, _ := scalar.OpCostsOf[T]()
	chargeEW(n, 2*n, costs.Add, costs.Mul)
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
	case []fixed.Num:
		v = frobFix(ad)
	default:
		var zero T
		return zero, false
	}
	costs, _ := scalar.OpCostsOf[T]()
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
	case []fixed.Num:
		v = maxAbsFix(ad)
	default:
		var zero T
		return zero, false
	}
	costs, _ := scalar.OpCostsOf[T]()
	chargeEW(n, n, costs.Abs, costs.Cmp)
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
	case []fixed.Num:
		out := make([]fixed.Num, r*c)
		mulFix(md, any(b.d).([]fixed.Num), out, r, k, c)
		d = out
	default:
		return Mat[T]{}, false
	}
	costs, _ := scalar.OpCostsOf[T]()
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
	case []fixed.Num:
		out := make([]fixed.Num, r)
		mulVecFix(md, any([]T(v)).([]fixed.Num), out, r, k)
		d = out
	default:
		return nil, false
	}
	costs, _ := scalar.OpCostsOf[T]()
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
	case []fixed.Num:
		out := make([]fixed.Num, c)
		tMulVecFix(md, any([]T(v)).([]fixed.Num), out, r, c)
		d = out
	default:
		return nil, false
	}
	costs, _ := scalar.OpCostsOf[T]()
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
