package mat

import (
	"errors"

	"repro/internal/scalar"
)

// LDLT holds an LDLᵀ factorization, used by the OSQP-style QP solver
// where the KKT matrix is symmetric indefinite (quasi-definite after
// regularization), so plain Cholesky does not apply.
type LDLT[T scalar.Real[T]] struct {
	l  Mat[T] // unit lower triangular
	lt []T    // Lᵀ row-major for the fast solve; nil from the reference loop
	d  Vec[T] // diagonal of D
}

// LDLTDecompose factors a symmetric matrix as L·D·Lᵀ without pivoting.
// It requires nonzero (not necessarily positive) pivots; the QP solver
// guarantees that through diagonal regularization, as real OSQP does.
func LDLTDecompose[T scalar.Real[T]](a Mat[T]) (*LDLT[T], error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, errors.New("mat: LDLT of non-square matrix")
	}
	if fastKernels() {
		if f, ok, singular := ldltDecomposeFast(a); ok {
			if singular {
				return nil, ErrSingular
			}
			return f, nil
		}
	}
	l := Identity(n, a.like())
	d := make(Vec[T], n)
	for j := 0; j < n; j++ {
		acc := a.At(j, j)
		for k := 0; k < j; k++ {
			acc = acc.Sub(d[k].Mul(l.At(j, k)).Mul(l.At(j, k)))
		}
		if acc.IsZero() {
			return nil, ErrSingular
		}
		d[j] = acc
		for i := j + 1; i < n; i++ {
			v := a.At(i, j)
			for k := 0; k < j; k++ {
				v = v.Sub(d[k].Mul(l.At(i, k)).Mul(l.At(j, k)))
			}
			l.Set(i, j, v.Div(d[j]))
		}
	}
	return &LDLT[T]{l: l, d: d}, nil
}

// Solve returns x with A·x = b.
func (f *LDLT[T]) Solve(b Vec[T]) Vec[T] {
	if fastKernels() {
		if x, ok := ldltSolveFast(f, b); ok {
			return x
		}
	}
	n := len(f.d)
	// L·y = b
	y, yh := borrowVec[T](n)
	defer yh.put()
	for i := 0; i < n; i++ {
		acc := b[i]
		for j := 0; j < i; j++ {
			acc = acc.Sub(f.l.At(i, j).Mul(y[j]))
		}
		y[i] = acc
	}
	// D·z = y, Lᵀ·x = z
	x := make(Vec[T], n)
	for i := n - 1; i >= 0; i-- {
		acc := y[i].Div(f.d[i])
		for j := i + 1; j < n; j++ {
			acc = acc.Sub(f.l.At(j, i).Mul(x[j]))
		}
		x[i] = acc
	}
	return x
}
