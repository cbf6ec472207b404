package mat

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/scalar"
)

// Vec is a dense vector of T.
type Vec[T scalar.Real[T]] []T

// VecFromFloats builds a vector with every element in like's format.
func VecFromFloats[T scalar.Real[T]](like T, xs []float64) Vec[T] {
	out := make(Vec[T], len(xs))
	for i, x := range xs {
		out[i] = like.FromFloat(x)
	}
	return out
}

// ZeroVec returns a zero vector of length n.
func ZeroVec[T scalar.Real[T]](n int) Vec[T] { return make(Vec[T], n) }

// Clone returns a copy of v.
func (v Vec[T]) Clone() Vec[T] {
	profile.AddM(uint64(2 * len(v)))
	out := make(Vec[T], len(v))
	copy(out, v)
	return out
}

// Add returns v+b.
func (v Vec[T]) Add(b Vec[T]) Vec[T] {
	v.checkLen(b)
	if fastKernels() {
		if d, ok := fastAddSlice[T](v, b); ok {
			return d
		}
	}
	out := make(Vec[T], len(v))
	for i := range v {
		out[i] = v[i].Add(b[i])
	}
	profile.AddM(uint64(3 * len(v)))
	return out
}

// Sub returns v-b.
func (v Vec[T]) Sub(b Vec[T]) Vec[T] {
	v.checkLen(b)
	if fastKernels() {
		if d, ok := fastSubSlice[T](v, b); ok {
			return d
		}
	}
	out := make(Vec[T], len(v))
	for i := range v {
		out[i] = v[i].Sub(b[i])
	}
	profile.AddM(uint64(3 * len(v)))
	return out
}

// Scale returns s·v.
func (v Vec[T]) Scale(s T) Vec[T] {
	if fastKernels() {
		if d, ok := fastScaleSlice[T](v, s); ok {
			return d
		}
	}
	out := make(Vec[T], len(v))
	for i := range v {
		out[i] = v[i].Mul(s)
	}
	profile.AddM(uint64(2 * len(v)))
	return out
}

// Dot returns v·b.
func (v Vec[T]) Dot(b Vec[T]) T {
	v.checkLen(b)
	if fastKernels() {
		if d, ok := fastDotSlice[T](v, b); ok {
			return d
		}
	}
	var acc T
	for i := range v {
		acc = acc.Add(v[i].Mul(b[i]))
	}
	profile.AddM(uint64(2 * len(v)))
	return acc
}

// Norm returns the Euclidean norm.
func (v Vec[T]) Norm() T { return v.Dot(v).Sqrt() }

// NormSq returns the squared Euclidean norm.
func (v Vec[T]) NormSq() T { return v.Dot(v) }

// Normalized returns v/|v|. A zero vector is returned unchanged.
func (v Vec[T]) Normalized() Vec[T] {
	n := v.Norm()
	if n.IsZero() {
		return v.Clone()
	}
	inv := scalar.One(n).Div(n)
	return v.Scale(inv)
}

// Neg returns -v.
func (v Vec[T]) Neg() Vec[T] {
	if fastKernels() {
		if d, ok := fastNegSlice[T](v); ok {
			return d
		}
	}
	out := make(Vec[T], len(v))
	for i := range v {
		out[i] = v[i].Neg()
	}
	profile.AddM(uint64(2 * len(v)))
	return out
}

// MaxAbs returns the largest absolute component.
func (v Vec[T]) MaxAbs() T {
	if fastKernels() {
		if d, ok := fastMaxAbsSlice[T](v); ok {
			return d
		}
	}
	var best T
	for _, x := range v {
		a := x.Abs()
		if best.Less(a) {
			best = a
		}
	}
	profile.AddM(uint64(len(v)))
	return best
}

// Cross returns the 3-vector cross product v×b.
func (v Vec[T]) Cross(b Vec[T]) Vec[T] {
	if len(v) != 3 || len(b) != 3 {
		panic("mat: Cross requires 3-vectors")
	}
	profile.AddM(12)
	return Vec[T]{
		v[1].Mul(b[2]).Sub(v[2].Mul(b[1])),
		v[2].Mul(b[0]).Sub(v[0].Mul(b[2])),
		v[0].Mul(b[1]).Sub(v[1].Mul(b[0])),
	}
}

// Outer returns the outer product v·bᵀ.
func (v Vec[T]) Outer(b Vec[T]) Mat[T] {
	m := Zeros[T](len(v), len(b))
	for i := range v {
		for j := range b {
			m.Set(i, j, v[i].Mul(b[j]))
		}
	}
	return m
}

// Floats converts to float64.
func (v Vec[T]) Floats() []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x.Float()
	}
	return out
}

func (v Vec[T]) checkLen(b Vec[T]) {
	if len(v) != len(b) {
		panic(fmt.Sprintf("mat: vector length mismatch %d vs %d", len(v), len(b)))
	}
}
