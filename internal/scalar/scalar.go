// Package scalar defines the generic numeric type family every EntoBench
// kernel is parameterized over, mirroring the paper's C++ template design
// in which each kernel switches between float, double, and fixed-point
// arithmetic at compile time.
//
// The Real constraint is satisfied by three implementations:
//
//   - F32 (this package): single-precision; counts as F ops.
//   - F64 (this package): double-precision; counts as F ops (the MCU cost
//     model charges extra cycles for doubles on SP-FPU cores).
//   - fixed.Num: Q-format fixed point; counts as I ops.
//
// Because fixed.Num carries its Q-format in the value, generic kernels
// must derive constants from an already-formatted sample via FromFloat —
// the C helper makes that idiom read naturally:
//
//	two := scalar.C(x, 2.0) // 2.0 in whatever format/precision x carries
package scalar

import (
	"math"

	"repro/internal/fixed"
	"repro/internal/profile"
)

// Real is the scalar constraint shared by every kernel. It is the method
// set of a closed real-number field plus the square root, ordering, and
// float conversion kernels need. All arithmetic methods record their
// operation class with the profiler.
type Real[T any] interface {
	Add(T) T
	Sub(T) T
	Mul(T) T
	Div(T) T
	Neg() T
	Abs() T
	Sqrt() T
	Less(T) bool
	LessEq(T) bool
	IsZero() bool
	Float() float64
	// FromFloat constructs the given value carrying the receiver's
	// format (Q-format for fixed point; a no-op discriminator for
	// floats). Kernels use it to materialize constants.
	FromFloat(float64) T
}

// Native is the constraint of F32 and F64: Real plus the machine float
// operators. Hook-free kernel bodies use it to run the arithmetic of a
// hooked Real body natively, op for op, and charge the mix themselves.
type Native[T any] interface {
	~float32 | ~float64
	Real[T]
}

// F32 is IEEE-754 single precision with profiling hooks.
type F32 float32

// F64 is IEEE-754 double precision with profiling hooks.
type F64 float64

// --- F32 ---

// Add returns a+b.
func (a F32) Add(b F32) F32 { profile.AddF(1); return a + b }

// Sub returns a-b.
func (a F32) Sub(b F32) F32 { profile.AddF(1); return a - b }

// Mul returns a*b.
func (a F32) Mul(b F32) F32 { profile.AddF(1); return a * b }

// Div returns a/b.
func (a F32) Div(b F32) F32 { profile.AddF(1); return a / b }

// Neg returns -a.
func (a F32) Neg() F32 { profile.AddF(1); return -a }

// Abs returns |a|.
func (a F32) Abs() F32 {
	profile.AddF(1)
	if a < 0 {
		return -a
	}
	return a
}

// Sqrt returns √a. Cost modeled as one F op: Cortex-M FPUs provide VSQRT.
func (a F32) Sqrt() F32 { profile.AddF(1); return F32(math.Sqrt(float64(a))) }

// Less reports a < b.
func (a F32) Less(b F32) bool { profile.AddB(1); return a < b }

// LessEq reports a <= b.
func (a F32) LessEq(b F32) bool { profile.AddB(1); return a <= b }

// IsZero reports a == 0.
func (a F32) IsZero() bool { return a == 0 }

// Float widens to float64.
func (a F32) Float() float64 { return float64(a) }

// FromFloat narrows x to single precision.
func (F32) FromFloat(x float64) F32 { return F32(x) }

// --- F64 ---

// Add returns a+b.
func (a F64) Add(b F64) F64 { profile.AddF(1); return a + b }

// Sub returns a-b.
func (a F64) Sub(b F64) F64 { profile.AddF(1); return a - b }

// Mul returns a*b.
func (a F64) Mul(b F64) F64 { profile.AddF(1); return a * b }

// Div returns a/b.
func (a F64) Div(b F64) F64 { profile.AddF(1); return a / b }

// Neg returns -a.
func (a F64) Neg() F64 { profile.AddF(1); return -a }

// Abs returns |a|.
func (a F64) Abs() F64 {
	profile.AddF(1)
	if a < 0 {
		return -a
	}
	return a
}

// Sqrt returns √a.
func (a F64) Sqrt() F64 { profile.AddF(1); return F64(math.Sqrt(float64(a))) }

// Less reports a < b.
func (a F64) Less(b F64) bool { profile.AddB(1); return a < b }

// LessEq reports a <= b.
func (a F64) LessEq(b F64) bool { profile.AddB(1); return a <= b }

// IsZero reports a == 0.
func (a F64) IsZero() bool { return a == 0 }

// Float returns a as float64.
func (a F64) Float() float64 { return float64(a) }

// FromFloat wraps x.
func (F64) FromFloat(x float64) F64 { return F64(x) }

// --- generic helpers ---

// C ("constant") materializes v in the format carried by like.
func C[T Real[T]](like T, v float64) T { return like.FromFloat(v) }

// Zero returns 0 in like's format.
func Zero[T Real[T]](like T) T { return like.FromFloat(0) }

// One returns 1 in like's format.
func One[T Real[T]](like T) T { return like.FromFloat(1) }

// Slice converts a float64 slice into T, all in like's format.
func Slice[T Real[T]](like T, xs []float64) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = like.FromFloat(x)
	}
	return out
}

// Floats converts a T slice back to float64.
func Floats[T Real[T]](xs []T) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.Float()
	}
	return out
}

// Max returns the larger of a and b.
func Max[T Real[T]](a, b T) T {
	if a.Less(b) {
		return b
	}
	return a
}

// Min returns the smaller of a and b.
func Min[T Real[T]](a, b T) T {
	if b.Less(a) {
		return b
	}
	return a
}

// Clamp limits x to [lo, hi].
func Clamp[T Real[T]](x, lo, hi T) T {
	if x.Less(lo) {
		return lo
	}
	if hi.Less(x) {
		return hi
	}
	return x
}

// Hypot returns sqrt(a²+b²) without undue overflow for floats; for fixed
// point the plain formula is used, as it would be on an MCU.
func Hypot[T Real[T]](a, b T) T {
	return a.Mul(a).Add(b.Mul(b)).Sqrt()
}

// libmCost is the modeled op count of a transcendental library call on a
// Cortex-M class core (polynomial approximations of 10-30 flops).
const libmCost = 20

// chargeLibm records a transcendental call: float kernels burn F ops,
// fixed-point kernels run CORDIC/polynomial integer routines and burn I
// ops (somewhat more of them, matching the shift-heavy fixed idiom).
func chargeLibm[T Real[T]](like T, calls uint64) {
	if _, isFixed := any(like).(fixed.Num); isFixed {
		profile.AddI(calls * libmCost * 3 / 2)
		return
	}
	profile.AddF(calls * libmCost)
}

// Sin returns sin(x). Float kernels round-trip through the host libm
// and charge a modeled polynomial cost; fixed-point kernels run the
// genuine integer-only CORDIC of the fixed package, exactly as an
// FPU-less build would.
func Sin[T Real[T]](x T) T {
	if fx, ok := any(x).(fixed.Num); ok {
		return any(fx.Sin()).(T)
	}
	chargeLibm(x, 1)
	return x.FromFloat(math.Sin(x.Float()))
}

// Cos returns cos(x); see Sin for the fixed-point path.
func Cos[T Real[T]](x T) T {
	if fx, ok := any(x).(fixed.Num); ok {
		return any(fx.Cos()).(T)
	}
	chargeLibm(x, 1)
	return x.FromFloat(math.Cos(x.Float()))
}

// Tan returns tan(x).
func Tan[T Real[T]](x T) T {
	chargeLibm(x, 1)
	return x.FromFloat(math.Tan(x.Float()))
}

// Atan2 returns atan2(y, x); fixed point uses CORDIC vectoring mode.
func Atan2[T Real[T]](y, x T) T {
	if fy, ok := any(y).(fixed.Num); ok {
		fx := any(x).(fixed.Num)
		return any(fixed.Atan2Fixed(fy, fx)).(T)
	}
	chargeLibm(x, 1)
	return x.FromFloat(math.Atan2(y.Float(), x.Float()))
}

// Asin returns asin(x), clamping the argument into [-1, 1] first as MCU
// quaternion code must.
func Asin[T Real[T]](x T) T {
	chargeLibm(x, 1)
	v := x.Float()
	if v > 1 {
		v = 1
	} else if v < -1 {
		v = -1
	}
	return x.FromFloat(math.Asin(v))
}

// Acos returns acos(x) with the same clamping as Asin.
func Acos[T Real[T]](x T) T {
	chargeLibm(x, 1)
	v := x.Float()
	if v > 1 {
		v = 1
	} else if v < -1 {
		v = -1
	}
	return x.FromFloat(math.Acos(v))
}

// Exp returns e^x.
func Exp[T Real[T]](x T) T {
	chargeLibm(x, 1)
	return x.FromFloat(math.Exp(x.Float()))
}

// Log returns ln(x).
func Log[T Real[T]](x T) T {
	chargeLibm(x, 1)
	return x.FromFloat(math.Log(x.Float()))
}

// Pow returns x^y.
func Pow[T Real[T]](x, y T) T {
	chargeLibm(x, 2)
	return x.FromFloat(math.Pow(x.Float(), y.Float()))
}
