// Package mat provides dense linear algebra over the generic scalar
// family, replacing the Eigen dependency of the original EntoBench suite.
//
// Like Eigen in the paper's kernels, it supplies exactly the primitives
// the insect-scale pipeline needs — small dense matrices, LU/LDLT/QR
// factorizations, Jacobi SVD, symmetric eigendecomposition, and real
// polynomial roots via companion-matrix QR iteration — and nothing more.
// Everything is generic over scalar.Real so one implementation serves
// float32, float64, and Q-format fixed point, and every element access is
// hooked into the profiler as a memory operation so kernels report honest
// F/I/M/B mixes.
//
// Matrices never allocate after construction; like the paper's kernels,
// callers preallocate and reuse, matching the no-dynamic-allocation design
// goal for resource-constrained platforms.
package mat

import (
	"fmt"
	"strings"

	"repro/internal/profile"
	"repro/internal/scalar"
)

// Mat is a dense row-major matrix of T.
type Mat[T scalar.Real[T]] struct {
	rows, cols int
	d          []T
}

// New wraps data (row-major, length rows*cols) in a matrix. The slice is
// not copied.
func New[T scalar.Real[T]](rows, cols int, data []T) Mat[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: New(%d, %d) with %d elements", rows, cols, len(data)))
	}
	return Mat[T]{rows: rows, cols: cols, d: data}
}

// Zeros returns a rows×cols matrix of zero values. For fixed-point T the
// zeros carry no format until written; arithmetic against formatted
// operands adopts the operand's format.
func Zeros[T scalar.Real[T]](rows, cols int) Mat[T] {
	return Mat[T]{rows: rows, cols: cols, d: make([]T, rows*cols)}
}

// Identity returns the n×n identity with ones in like's format.
func Identity[T scalar.Real[T]](n int, like T) Mat[T] {
	m := Zeros[T](n, n)
	one := like.FromFloat(1)
	for i := 0; i < n; i++ {
		m.Set(i, i, one)
	}
	return m
}

// FromFloats builds a matrix from float64 rows, each value in like's
// format. All rows must have equal length.
func FromFloats[T scalar.Real[T]](like T, rows [][]float64) Mat[T] {
	r := len(rows)
	if r == 0 {
		return Mat[T]{}
	}
	c := len(rows[0])
	m := Zeros[T](r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows in FromFloats")
		}
		for j, v := range row {
			m.Set(i, j, like.FromFloat(v))
		}
	}
	return m
}

// Rows returns the row count.
func (m Mat[T]) Rows() int { return m.rows }

// Cols returns the column count.
func (m Mat[T]) Cols() int { return m.cols }

// Raw returns m's row-major element slice, shared with m, without
// charging the profiler. It is for closed-form kernels that read a
// matrix in place and charge the whole computation's mix themselves.
func (m Mat[T]) Raw() []T { return m.d }

// At returns element (i, j), charging one memory op plus the index
// arithmetic a generic (non-unrolled) matrix library pays per access —
// the overhead Case Study #3 shows FLOP counting misses.
func (m Mat[T]) At(i, j int) T {
	profile.AddM(1)
	profile.AddI(1)
	return m.d[i*m.cols+j]
}

// Set writes element (i, j); cost accounting as At.
func (m Mat[T]) Set(i, j int, v T) {
	profile.AddM(1)
	profile.AddI(1)
	m.d[i*m.cols+j] = v
}

// Clone returns a deep copy.
func (m Mat[T]) Clone() Mat[T] {
	profile.AddM(uint64(len(m.d)))
	d := make([]T, len(m.d))
	copy(d, m.d)
	return Mat[T]{rows: m.rows, cols: m.cols, d: d}
}

// Transpose returns mᵀ as a new matrix.
func (m Mat[T]) Transpose() Mat[T] {
	if fastKernels() {
		return fastTranspose(m)
	}
	t := Zeros[T](m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Add returns m+b.
func (m Mat[T]) Add(b Mat[T]) Mat[T] {
	m.checkSameShape(b)
	if fastKernels() {
		if d, ok := fastAddSlice[T](m.d, b.d); ok {
			return Mat[T]{rows: m.rows, cols: m.cols, d: d}
		}
	}
	out := Zeros[T](m.rows, m.cols)
	for i := range m.d {
		out.d[i] = m.d[i].Add(b.d[i])
	}
	profile.AddM(uint64(3 * len(m.d)))
	return out
}

// Sub returns m-b.
func (m Mat[T]) Sub(b Mat[T]) Mat[T] {
	m.checkSameShape(b)
	if fastKernels() {
		if d, ok := fastSubSlice[T](m.d, b.d); ok {
			return Mat[T]{rows: m.rows, cols: m.cols, d: d}
		}
	}
	out := Zeros[T](m.rows, m.cols)
	for i := range m.d {
		out.d[i] = m.d[i].Sub(b.d[i])
	}
	profile.AddM(uint64(3 * len(m.d)))
	return out
}

// Scale returns s·m.
func (m Mat[T]) Scale(s T) Mat[T] {
	if fastKernels() {
		if d, ok := fastScaleSlice[T](m.d, s); ok {
			return Mat[T]{rows: m.rows, cols: m.cols, d: d}
		}
	}
	out := Zeros[T](m.rows, m.cols)
	for i := range m.d {
		out.d[i] = m.d[i].Mul(s)
	}
	profile.AddM(uint64(2 * len(m.d)))
	return out
}

// Mul returns m·b.
func (m Mat[T]) Mul(b Mat[T]) Mat[T] {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	if fastKernels() {
		if out, ok := fastMul(m, b); ok {
			return out
		}
	}
	out := Zeros[T](m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var acc T
			for k := 0; k < m.cols; k++ {
				acc = acc.Add(m.d[i*m.cols+k].Mul(b.d[k*b.cols+j]))
			}
			out.d[i*b.cols+j] = acc
		}
	}
	profile.AddM(uint64(2*m.rows*b.cols*m.cols + m.rows*b.cols))
	// Loop-carried index arithmetic and branch work per MAC.
	profile.AddI(uint64(m.rows * b.cols * m.cols))
	profile.AddB(uint64(m.rows * b.cols * (1 + m.cols/4)))
	return out
}

// MulVec returns m·v.
func (m Mat[T]) MulVec(v Vec[T]) Vec[T] {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVec shape mismatch %dx%d · %d", m.rows, m.cols, len(v)))
	}
	if fastKernels() {
		if out, ok := fastMulVec(m, v); ok {
			return out
		}
	}
	out := make(Vec[T], m.rows)
	for i := 0; i < m.rows; i++ {
		var acc T
		for k := 0; k < m.cols; k++ {
			acc = acc.Add(m.d[i*m.cols+k].Mul(v[k]))
		}
		out[i] = acc
	}
	profile.AddM(uint64(2*m.rows*m.cols + m.rows))
	profile.AddB(uint64(m.rows))
	return out
}

// TMulVec returns mᵀ·v: the bits and charged counts of
// m.Transpose().MulVec(v), the transpose's element moves included,
// without building the transpose.
func (m Mat[T]) TMulVec(v Vec[T]) Vec[T] {
	if fastKernels() {
		if out, ok := fastTMulVec(m, v); ok {
			return out
		}
	}
	return m.Transpose().MulVec(v)
}

// Row returns a copy of row i as a vector.
func (m Mat[T]) Row(i int) Vec[T] {
	out := make(Vec[T], m.cols)
	profile.AddM(uint64(2 * m.cols))
	copy(out, m.d[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j as a vector.
func (m Mat[T]) Col(j int) Vec[T] {
	out := make(Vec[T], m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// SetRow overwrites row i with v.
func (m Mat[T]) SetRow(i int, v Vec[T]) {
	if len(v) != m.cols {
		panic("mat: SetRow length mismatch")
	}
	profile.AddM(uint64(2 * m.cols))
	copy(m.d[i*m.cols:(i+1)*m.cols], v)
}

// SetCol overwrites column j with v.
func (m Mat[T]) SetCol(j int, v Vec[T]) {
	if len(v) != m.rows {
		panic("mat: SetCol length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		m.Set(i, j, v[i])
	}
}

// SwapRows exchanges rows i and j in place.
func (m Mat[T]) SwapRows(i, j int) {
	if i == j {
		return
	}
	profile.AddM(uint64(4 * m.cols))
	ri := m.d[i*m.cols : (i+1)*m.cols]
	rj := m.d[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Submatrix returns the rows×cols block starting at (r0, c0) as a copy.
func (m Mat[T]) Submatrix(r0, c0, rows, cols int) Mat[T] {
	out := Zeros[T](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out.Set(i, j, m.At(r0+i, c0+j))
		}
	}
	return out
}

// SetSubmatrix writes block b into m starting at (r0, c0).
func (m Mat[T]) SetSubmatrix(r0, c0 int, b Mat[T]) {
	for i := 0; i < b.rows; i++ {
		for j := 0; j < b.cols; j++ {
			m.Set(r0+i, c0+j, b.At(i, j))
		}
	}
}

// Trace returns the sum of the diagonal.
func (m Mat[T]) Trace() T {
	var acc T
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	for i := 0; i < n; i++ {
		acc = acc.Add(m.At(i, i))
	}
	return acc
}

// FrobNorm returns the Frobenius norm.
func (m Mat[T]) FrobNorm() T {
	if fastKernels() {
		if v, ok := fastFrobSlice[T](m.d); ok {
			return v
		}
	}
	var acc T
	for _, v := range m.d {
		acc = acc.Add(v.Mul(v))
	}
	profile.AddM(uint64(len(m.d)))
	return acc.Sqrt()
}

// MaxAbs returns the largest absolute element value.
func (m Mat[T]) MaxAbs() T {
	if fastKernels() {
		if v, ok := fastMaxAbsSlice[T](m.d); ok {
			return v
		}
	}
	var best T
	for _, v := range m.d {
		a := v.Abs()
		if best.Less(a) {
			best = a
		}
	}
	profile.AddM(uint64(len(m.d)))
	return best
}

// Floats renders the matrix as float64 rows, mostly for tests and reports.
func (m Mat[T]) Floats() [][]float64 {
	out := make([][]float64, m.rows)
	for i := range out {
		row := make([]float64, m.cols)
		for j := range row {
			row[j] = m.d[i*m.cols+j].Float()
		}
		out[i] = row
	}
	return out
}

// String renders a compact matrix dump.
func (m Mat[T]) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.6g", m.d[i*m.cols+j].Float())
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func (m Mat[T]) checkSameShape(b Mat[T]) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

// like returns a formatted sample element for deriving constants; the
// matrix must be non-empty.
func (m Mat[T]) like() T {
	var best T
	for _, v := range m.d {
		if !v.IsZero() {
			return v
		}
	}
	return best
}

// EpsOf probes the machine epsilon of T numerically: the largest e with
// 1+e ≠ 1 halved once. It works for floats and fixed point alike, letting
// iterative algorithms choose honest convergence thresholds per precision.
func EpsOf[T scalar.Real[T]](like T) T {
	one := like.FromFloat(1)
	half := like.FromFloat(0.5)
	e := one
	for i := 0; i < 80; i++ {
		ne := e.Mul(half)
		if one.Add(ne).Sub(one).IsZero() {
			return e
		}
		e = ne
	}
	return e
}
