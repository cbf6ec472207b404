// Package fixed implements a Qm.n fixed-point real number with a
// value-carried format, mirroring EntoBench's custom fixed-point scalar
// with full linear-algebra integration.
//
// A Num stores a 32-bit two's-complement fixed-point value (kept in an
// int64 so overflow can be detected rather than silently wrapped) together
// with its fraction-bit count. Carrying the format in the value — rather
// than in the type — is what lets Case Study #2's full Q-format sweep
// (Fig 4 of the paper) run a single generic kernel body across every
// format from Q30.1 to Q1.30.
//
// All arithmetic saturates on overflow and records the event in a Status
// block, because fixed-point failure *rates* (overflow, near-zero divisors,
// quaternion norm drift) are themselves a measured quantity in the paper.
package fixed

import (
	"fmt"
	"math"

	"repro/internal/profile"
)

// WordBits is the emulated machine word width. EntoBench targets 32-bit
// Cortex-M cores, so values saturate at int32 range.
const WordBits = 31 // magnitude bits: values live in [-2^31, 2^31-1]

const (
	maxRaw = int64(math.MaxInt32)
	minRaw = int64(math.MinInt32)
)

// Status accumulates fixed-point failure events. The attitude-estimation
// case study counts these to compute per-format failure rates.
type Status struct {
	Overflows   uint64 // saturating additions/multiplications
	ZeroDivides uint64 // divisions by (near-)zero
	SqrtNeg     uint64 // square roots of negative values
}

// status is package-global for the same single-core reason profile is:
// kernel execution is single-goroutine.
var status Status

// ResetStatus clears the failure counters and returns the previous values.
func ResetStatus() Status {
	prev := status
	status = Status{}
	return prev
}

// CurrentStatus returns the failure counters accumulated since the last
// ResetStatus.
func CurrentStatus() Status { return status }

// Num is a fixed-point real. The zero value is 0 in Q31.0 format; most
// code should create values with New or FromFloat so the intended format
// is attached.
type Num struct {
	raw  int64 // fixed-point payload, valid range [minRaw, maxRaw]
	frac uint8 // number of fraction bits, 0..30
}

// New returns the fixed-point representation of x in Q(31-frac).frac
// format. Out-of-range values saturate and count as overflow.
func New(x float64, frac uint8) Num {
	if frac > 30 {
		frac = 30
	}
	scaled := x * float64(int64(1)<<frac)
	return Num{raw: clamp(int64(math.RoundToEven(scaled))), frac: frac}
}

// Raw returns the underlying integer payload.
func (a Num) Raw() int64 { return a.raw }

// FracBits returns the number of fraction bits in a's format.
func (a Num) FracBits() uint8 { return a.frac }

// Format describes a's Q-format, e.g. "q7.24".
func (a Num) Format() string { return fmt.Sprintf("q%d.%d", 31-int(a.frac), a.frac) }

// String renders the value and format.
func (a Num) String() string { return fmt.Sprintf("%g(%s)", a.Float(), a.Format()) }

// Float converts back to float64.
func (a Num) Float() float64 { return float64(a.raw) / float64(int64(1)<<a.frac) }

// FromFloat constructs x in the receiver's format. This is the generic
// scalar constructor: kernels thread a formatted sample value through and
// derive all constants from it, so one kernel body serves every format.
func (a Num) FromFloat(x float64) Num { return New(x, a.frac) }

func clamp(v int64) int64 {
	if v > maxRaw {
		status.Overflows++
		return maxRaw
	}
	if v < minRaw {
		status.Overflows++
		return minRaw
	}
	return v
}

// align brings b into a's format, rounding on right shifts. If the
// receiver carries no format (zero value) the other operand's format wins,
// which keeps expressions like acc.Add(x) working when acc started life as
// a bare zero.
func (a Num) align(b Num) (x, y int64, frac uint8) {
	frac = a.frac
	if frac == 0 && b.frac != 0 {
		frac = b.frac
	}
	x = shiftTo(a.raw, a.frac, frac)
	y = shiftTo(b.raw, b.frac, frac)
	return x, y, frac
}

func shiftTo(raw int64, from, to uint8) int64 {
	switch {
	case from == to:
		return raw
	case to > from:
		return clamp(raw << (to - from))
	default:
		sh := from - to
		// Round to nearest: add half an LSB before shifting.
		return (raw + (1 << (sh - 1))) >> sh
	}
}

// Modeled instruction-mix cost of each arithmetic operation, in integer
// ops, as the methods below charge it.
const (
	CostAdd  = 1 // saturating add
	CostSub  = 1 // saturating subtract
	CostMul  = 2 // wide multiply + renormalizing shift
	CostDiv  = 2 // pre-shift + 64/32 divide
	CostNeg  = 1
	CostAbs  = 1
	CostSqrt = 16 // integer Newton iteration on the widened radicand
)

// Add returns a+b, saturating. Cost: one integer op.
func (a Num) Add(b Num) Num {
	profile.AddI(CostAdd)
	x, y, f := a.align(b)
	return Num{raw: clamp(x + y), frac: f}
}

// Sub returns a-b, saturating.
func (a Num) Sub(b Num) Num {
	profile.AddI(CostSub)
	x, y, f := a.align(b)
	return Num{raw: clamp(x - y), frac: f}
}

// Mul returns a*b. Fixed-point multiplication is a wide multiply followed
// by a renormalizing shift — the "shift back every multiply" cost the
// paper observes makes fixed point slower than hardware float on FPU
// cores. Cost: two integer ops (mul + shift).
func (a Num) Mul(b Num) Num {
	profile.AddI(CostMul)
	x, y, f := a.align(b)
	wide := x * y // fits: both operands are 32-bit range
	if f > 0 {
		wide = (wide + (1 << (f - 1))) >> f
	}
	return Num{raw: clamp(wide), frac: f}
}

// Div returns a/b. Division by zero saturates toward the sign of a and
// records a ZeroDivides event. Cost: two integer ops (shift + divide).
func (a Num) Div(b Num) Num {
	profile.AddI(CostDiv)
	x, y, f := a.align(b)
	if y == 0 {
		status.ZeroDivides++
		if x >= 0 {
			return Num{raw: maxRaw, frac: f}
		}
		return Num{raw: minRaw, frac: f}
	}
	// Pre-shift the dividend so the quotient lands in the right format.
	// The widened dividend can exceed 32 bits; that is fine in int64 and
	// mirrors a 64/32 divide on the MCU.
	wide := x << f
	return Num{raw: clamp(wide / y), frac: f}
}

// Neg returns -a.
func (a Num) Neg() Num {
	profile.AddI(CostNeg)
	return Num{raw: clamp(-a.raw), frac: a.frac}
}

// Abs returns |a|.
func (a Num) Abs() Num {
	profile.AddI(CostAbs)
	if a.raw < 0 {
		return Num{raw: clamp(-a.raw), frac: a.frac}
	}
	return a
}

// Sqrt returns the square root of a, computed with an integer Newton
// iteration on the widened radicand (the standard MCU idiom). Negative
// inputs record a SqrtNeg event and return 0. Cost modeled as 16 integer
// ops, approximating the iteration count of a 32-bit integer sqrt.
func (a Num) Sqrt() Num {
	profile.AddI(CostSqrt)
	if a.raw < 0 {
		status.SqrtNeg++
		return Num{raw: 0, frac: a.frac}
	}
	if a.raw == 0 {
		return a
	}
	// sqrt(raw * 2^frac) gives the root already in a.frac format:
	// sqrt(v * 2^f) = sqrt(v) * 2^(f/2) * 2^(f/2) ... widened below.
	wide := uint64(a.raw) << a.frac
	r := isqrt64(wide)
	return Num{raw: clamp(int64(r)), frac: a.frac}
}

// isqrt64 is a non-restoring integer square root of a uint64.
func isqrt64(v uint64) uint64 {
	var res, bit uint64
	bit = 1 << 62
	for bit > v {
		bit >>= 2
	}
	for bit != 0 {
		if v >= res+bit {
			v -= res + bit
			res = res>>1 + bit
		} else {
			res >>= 1
		}
		bit >>= 2
	}
	return res
}

// Less reports a < b. Cost: one branch/compare.
func (a Num) Less(b Num) bool {
	profile.AddB(1)
	x, y, _ := a.align(b)
	return x < y
}

// LessEq reports a <= b.
func (a Num) LessEq(b Num) bool {
	profile.AddB(1)
	x, y, _ := a.align(b)
	return x <= y
}

// IsZero reports whether the payload is exactly zero.
func (a Num) IsZero() bool { return a.raw == 0 }

// Eq reports exact payload equality after format alignment.
func (a Num) Eq(b Num) bool {
	x, y, _ := a.align(b)
	return x == y
}

// MaxValue returns the largest representable value in a's format.
func (a Num) MaxValue() Num { return Num{raw: maxRaw, frac: a.frac} }

// Eps returns one LSB in a's format — the quantization step.
func (a Num) Eps() Num { return Num{raw: 1, frac: a.frac} }
