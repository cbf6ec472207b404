package mat

import (
	"repro/internal/scalar"
)

// Poly is a dense univariate polynomial; element i is the coefficient of
// x^i. The pose solvers build these symbolically and extract real roots.
type Poly[T scalar.Real[T]] []T

// PolyFromFloats builds a polynomial in like's format.
func PolyFromFloats[T scalar.Real[T]](like T, coeffs []float64) Poly[T] {
	out := make(Poly[T], len(coeffs))
	for i, c := range coeffs {
		out[i] = like.FromFloat(c)
	}
	return out
}

// Degree returns the index of the highest nonzero coefficient.
func (p Poly[T]) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if !p[i].IsZero() {
			return i
		}
	}
	return 0
}

// Eval evaluates p at x with Horner's scheme.
func (p Poly[T]) Eval(x T) T {
	var acc T
	for i := len(p) - 1; i >= 0; i-- {
		acc = acc.Mul(x).Add(p[i])
	}
	return acc
}

// Derivative returns p'.
func (p Poly[T]) Derivative() Poly[T] {
	if len(p) <= 1 {
		return Poly[T]{}
	}
	out := make(Poly[T], len(p)-1)
	for i := 1; i < len(p); i++ {
		k := p[i].FromFloat(float64(i))
		out[i-1] = p[i].Mul(k)
	}
	return out
}

// MulPoly returns p·q.
func (p Poly[T]) MulPoly(q Poly[T]) Poly[T] {
	if len(p) == 0 || len(q) == 0 {
		return Poly[T]{}
	}
	out := make(Poly[T], len(p)+len(q)-1)
	for i, a := range p {
		if a.IsZero() {
			continue
		}
		for j, b := range q {
			out[i+j] = out[i+j].Add(a.Mul(b))
		}
	}
	return out
}

// AddPoly returns p+q.
func (p Poly[T]) AddPoly(q Poly[T]) Poly[T] {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(Poly[T], n)
	for i := range out {
		var v T
		if i < len(p) {
			v = v.Add(p[i])
		}
		if i < len(q) {
			v = v.Add(q[i])
		}
		out[i] = v
	}
	return out
}

// SubPoly returns p-q.
func (p Poly[T]) SubPoly(q Poly[T]) Poly[T] {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(Poly[T], n)
	for i := range out {
		var v T
		if i < len(p) {
			v = v.Add(p[i])
		}
		if i < len(q) {
			v = v.Sub(q[i])
		}
		out[i] = v
	}
	return out
}

// ScalePoly returns s·p.
func (p Poly[T]) ScalePoly(s T) Poly[T] {
	out := make(Poly[T], len(p))
	for i, a := range p {
		out[i] = a.Mul(s)
	}
	return out
}

// RealRoots returns the real roots of p, found as the real eigenvalues of
// the companion matrix (the standard robust method) followed by two
// Newton polishing steps. The companion matrix is already Hessenberg, so
// the shifted-QR iteration applies directly — this mirrors how production
// minimal solvers extract roots of the degree-10 polynomial in the
// five-point algorithm. From degree 3 up, F32 and F64 run natively
// (fast_eig.go).
func (p Poly[T]) RealRoots() Vec[T] {
	if d := p.Degree(); d >= 3 {
		if roots, ok := realRootsFast(p, d); ok {
			return roots
		}
	}
	return p.realRootsHooked()
}

// realRootsHooked is RealRoots through the hooked matrix and scalar
// layers, the oracle of realRootsNat.
func (p Poly[T]) realRootsHooked() Vec[T] {
	d := p.Degree()
	if d == 0 {
		return nil
	}
	like := p[d]
	one := scalar.One(like)
	if d == 1 {
		// a1 x + a0 = 0
		return Vec[T]{p[0].Neg().Div(p[1])}
	}
	if d == 2 {
		return solveQuadratic(p[2], p[1], p[0])
	}
	// Companion matrix of the monic normalization.
	inv := one.Div(p[d])
	c := Zeros[T](d, d)
	for i := 0; i < d; i++ {
		c.Set(0, i, p[d-1-i].Neg().Mul(inv))
	}
	for i := 1; i < d; i++ {
		c.Set(i, i-1, one)
	}
	eig := HessenbergEigen(c)
	eps := EpsOf(like)
	var scale T
	for i := range eig.Re {
		scale = scalar.Max(scale, scalar.Max(eig.Re[i].Abs(), eig.Im[i].Abs()))
	}
	tol := eps.Mul(like.FromFloat(1e5)).Mul(scalar.Max(scale, one))
	dp := p.Derivative()
	var roots Vec[T]
	for i := range eig.Re {
		if !eig.Im[i].Abs().LessEq(tol) {
			continue
		}
		r := eig.Re[i]
		// Newton polish.
		for it := 0; it < 3; it++ {
			f := p.Eval(r)
			fp := dp.Eval(r)
			if fp.IsZero() {
				break
			}
			r = r.Sub(f.Div(fp))
		}
		roots = append(roots, r)
	}
	return roots
}

// solveQuadratic returns the real roots of a·x² + b·x + c.
func solveQuadratic[T scalar.Real[T]](a, b, c T) Vec[T] {
	zero := scalar.Zero(a)
	two := a.FromFloat(2)
	four := a.FromFloat(4)
	if a.IsZero() {
		if b.IsZero() {
			return nil
		}
		return Vec[T]{c.Neg().Div(b)}
	}
	disc := b.Mul(b).Sub(four.Mul(a).Mul(c))
	if disc.Less(zero) {
		return nil
	}
	sq := disc.Sqrt()
	// Numerically stable form: q = -(b + sign(b)·sqrt(disc))/2.
	var q T
	if b.Less(zero) {
		q = b.Sub(sq).Neg().Div(two)
	} else {
		q = b.Add(sq).Neg().Div(two)
	}
	if q.IsZero() {
		return Vec[T]{zero}
	}
	return Vec[T]{q.Div(a), c.Div(q)}
}

// SolveQuadratic exposes the stable quadratic solver.
func SolveQuadratic[T scalar.Real[T]](a, b, c T) Vec[T] { return solveQuadratic(a, b, c) }
