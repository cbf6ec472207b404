package pose

import (
	"math"

	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/scalar"
)

// SampsonErr returns the first-order geometric (Sampson) epipolar error
// for a correspondence under essential matrix e.
//
// RANSAC scores every correspondence against every hypothesis with it,
// so it has a native body on stack arrays that charges its mix once
// (see sampsonCost), beside the hooked body, sampsonHooked, which
// charges the same counts op by op; the mat package's fast-path rule
// picks between them.
func SampsonErr[T scalar.Real[T]](e mat.Mat[T], c RelCorrespondence[T]) T {
	if e.Rows() == 3 && e.Cols() == 3 && !mat.ReferenceKernels() {
		var out T
		switch p := any(&out).(type) {
		case *scalar.F32:
			*p = sampsonNat(any(e.Raw()).([]scalar.F32),
				any([]T(c.U1)).([]scalar.F32), any([]T(c.U2)).([]scalar.F32))
			return out
		case *scalar.F64:
			*p = sampsonNat(any(e.Raw()).([]scalar.F64),
				any([]T(c.U1)).([]scalar.F64), any([]T(c.U2)).([]scalar.F64))
			return out
		}
	}
	return sampsonHooked(e, c)
}

// sampsonHooked is SampsonErr through the generic matrix and scalar
// layers.
func sampsonHooked[T scalar.Real[T]](e mat.Mat[T], c RelCorrespondence[T]) T {
	x1 := homog(c.U1)
	x2 := homog(c.U2)
	ex1 := e.MulVec(x1)
	etx2 := e.TMulVec(x2)
	num := x2.Dot(ex1)
	den := ex1[0].Mul(ex1[0]).Add(ex1[1].Mul(ex1[1])).
		Add(etx2[0].Mul(etx2[0])).Add(etx2[1].Mul(etx2[1]))
	if den.IsZero() {
		return num.Abs()
	}
	return num.Mul(num).Div(den).Sqrt()
}

// sampsonCost is what sampsonHooked charges up to its branch: the 3×3
// MulVec (F18 M21 B3), the 3×3 TMulVec (F18 M39 I18 B3), the 3-element
// Dot (F6 M6) and the seven float ops of the denominator. The branch
// adds one float op (Abs) when the denominator is zero and three (Mul,
// Div, Sqrt) otherwise.
var sampsonCost = profile.Counts{
	F: 18 + 18 + 6 + 7,
	M: 21 + 39 + 6,
	I: 18,
	B: 3 + 3,
}

// sampsonNat is sampsonHooked on native floats: the same products and
// sums in the same order (the loops of mat's mulVecNat, tMulVecNat and
// dotNat, then the scalar tail), so the result is bit-identical. It
// charges sampsonCost plus its branch in one call.
func sampsonNat[F ~float32 | ~float64](e, u1, u2 []F) F {
	e = e[:9]
	x1 := [3]F{u1[0], u1[1], 1}
	x2 := [3]F{u2[0], u2[1], 1}
	var ex1, etx2 [3]F
	for i := 0; i < 3; i++ {
		var acc F
		for k := 0; k < 3; k++ {
			acc = acc + e[i*3+k]*x1[k]
		}
		ex1[i] = acc
	}
	for j := 0; j < 3; j++ {
		var acc F
		for k := 0; k < 3; k++ {
			acc = acc + e[k*3+j]*x2[k]
		}
		etx2[j] = acc
	}
	var num F
	for i := 0; i < 3; i++ {
		num = num + x2[i]*ex1[i]
	}
	// The explicit F conversions pin every intermediate of the scalar
	// tail to one rounding step, as its method-by-method evaluation does,
	// even on FMA-fusing architectures.
	den := F(F(F(ex1[0]*ex1[0])+F(ex1[1]*ex1[1]))+F(etx2[0]*etx2[0])) + F(etx2[1]*etx2[1])
	cost := sampsonCost
	if den == 0 {
		cost.F++
		profile.AddCounts(cost)
		if num < 0 {
			return -num
		}
		return num
	}
	cost.F += 3
	profile.AddCounts(cost)
	return F(math.Sqrt(float64(F(num*num) / den)))
}
