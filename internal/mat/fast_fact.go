package mat

// Native factorization loops (LU, LDLT, QR) for F32 and F64.
//
// Unlike the dense products in fast.go, elimination loops have
// data-dependent control flow — pivot swaps, singularity early-exits,
// zero-column skips, sign branches — so their op counts cannot be a
// single closed-form formula. Each implementation below is a 1:1
// transcription of its hooked generic counterpart in lu.go/chol.go/qr.go
// that replaces every hooked At/Set with a direct index plus an M+I
// tally, and every hooked scalar method with native arithmetic plus its
// scalar.FloatOpCosts tally, into one local profile.Counts that the
// dispatcher flushes in a single AddCounts. The charges therefore follow
// the exact control-flow path the reference would have taken —
// including the partial charges of an early error return — which the
// differential tests in fast_test.go verify count for count.

import (
	"math"

	"repro/internal/profile"
	"repro/internal/scalar"
)

// --- LU decomposition ---

// luNat factors d (n×n, row-major, modified in place) with partial
// pivoting. ok=false reports a singular pivot; cnt then holds the
// charges up to the point of detection, as the hooked path would have
// recorded.
func luNat[F native](cnt *profile.Counts, d []F, n int, piv []int) (sign int, ok bool) {
	sign = 1
	for k := 0; k < n; k++ {
		p := k
		cnt.M++
		cnt.I++ // At(k,k)
		cnt.F++ // Abs
		best := d[k*n+k]
		if best < 0 {
			best = -best
		}
		for i := k + 1; i < n; i++ {
			cnt.M++
			cnt.I++ // At(i,k)
			cnt.F++ // Abs
			v := d[i*n+k]
			if v < 0 {
				v = -v
			}
			cnt.B++ // Less
			if best < v {
				best, p = v, i
			}
		}
		cnt.B += uint64(n - k)
		piv[k] = p
		if p != k {
			cnt.M += uint64(4 * n) // SwapRows
			ri := d[p*n : p*n+n]
			rj := d[k*n : k*n+n]
			for t := range ri {
				ri[t], rj[t] = rj[t], ri[t]
			}
			sign = -sign
		}
		cnt.M++
		cnt.I++ // At(k,k)
		pv := d[k*n+k]
		if pv == 0 {
			return sign, false
		}
		for i := k + 1; i < n; i++ {
			cnt.M += 2
			cnt.I += 2 // At(i,k) + Set(i,k)
			cnt.F++    // Div
			m := d[i*n+k] / pv
			d[i*n+k] = m
			for j := k + 1; j < n; j++ {
				cnt.M += 3
				cnt.I += 3 // At(i,j), At(k,j), Set(i,j)
				cnt.F += 2 // Mul, Sub
				d[i*n+j] = d[i*n+j] - m*d[k*n+j]
			}
		}
	}
	return sign, true
}

// luDecomposeFast is the dispatcher behind LUDecompose. ok=false means T
// has no fast path and the caller must run the hooked loop.
func luDecomposeFast[T scalar.Real[T]](a Mat[T]) (f *LU[T], ok bool, err error) {
	if !nativeOf[T]() {
		return nil, false, nil
	}
	n := a.rows
	lu := a.Clone() // hooked: charges its M term exactly like the reference
	piv := make([]int, n)
	var cnt profile.Counts
	var sign int
	var good bool
	switch d := any(lu.d).(type) {
	case []scalar.F32:
		sign, good = luNat(&cnt, d, n, piv)
	case []scalar.F64:
		sign, good = luNat(&cnt, d, n, piv)
	}
	profile.AddCounts(cnt)
	if !good {
		return nil, true, ErrSingular
	}
	return &LU[T]{lu: lu, pivot: piv, sign: sign}, true, nil
}

// --- LU solve ---

func luSolveNat[F native](cnt *profile.Counts, lu []F, n int, piv []int, b []F) []F {
	cnt.M += uint64(2 * n) // b.Clone()
	x := make([]F, n)
	copy(x, b)
	for k := 0; k < n; k++ {
		if p := piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	for i := 1; i < n; i++ {
		acc := x[i]
		for j := 0; j < i; j++ {
			cnt.M++
			cnt.I++    // At(i,j)
			cnt.F += 2 // Mul, Sub
			acc = acc - lu[i*n+j]*x[j]
		}
		x[i] = acc
	}
	for i := n - 1; i >= 0; i-- {
		acc := x[i]
		for j := i + 1; j < n; j++ {
			cnt.M++
			cnt.I++    // At(i,j)
			cnt.F += 2 // Mul, Sub
			acc = acc - lu[i*n+j]*x[j]
		}
		cnt.M++
		cnt.I++ // At(i,i)
		cnt.F++ // Div
		x[i] = acc / lu[i*n+i]
	}
	cnt.M += uint64(4 * n)
	return x
}

// luSolveFast is the dispatcher behind LU.Solve.
func luSolveFast[T scalar.Real[T]](f *LU[T], b Vec[T]) (Vec[T], bool) {
	n := f.lu.rows
	var cnt profile.Counts
	var x any
	switch d := any(f.lu.d).(type) {
	case []scalar.F32:
		x = luSolveNat(&cnt, d, n, f.pivot, any([]T(b)).([]scalar.F32))
	case []scalar.F64:
		x = luSolveNat(&cnt, d, n, f.pivot, any([]T(b)).([]scalar.F64))
	default:
		return nil, false
	}
	profile.AddCounts(cnt)
	return Vec[T](x.([]T)), true
}

// --- LDLT decomposition ---

func ldltNat[F native](cnt *profile.Counts, a []F, l []F, dd []F, n int) bool {
	for j := 0; j < n; j++ {
		cnt.M++
		cnt.I++ // a.At(j,j)
		acc := a[j*n+j]
		for k := 0; k < j; k++ {
			cnt.M += 2
			cnt.I += 2 // l.At(j,k) ×2
			cnt.F += 3 // Mul, Mul, Sub
			acc = acc - dd[k]*l[j*n+k]*l[j*n+k]
		}
		if acc == 0 {
			return false
		}
		dd[j] = acc
		for i := j + 1; i < n; i++ {
			cnt.M++
			cnt.I++ // a.At(i,j)
			v := a[i*n+j]
			for k := 0; k < j; k++ {
				cnt.M += 2
				cnt.I += 2 // l.At(i,k), l.At(j,k)
				cnt.F += 3 // Mul, Mul, Sub
				v = v - dd[k]*l[i*n+k]*l[j*n+k]
			}
			cnt.F++ // Div
			cnt.M++
			cnt.I++ // Set(i,j)
			l[i*n+j] = v / dd[j]
		}
	}
	return true
}

// ldltDecomposeFast is the dispatcher behind LDLTDecompose.
func ldltDecomposeFast[T scalar.Real[T]](a Mat[T]) (f *LDLT[T], ok bool, singular bool) {
	if !nativeOf[T]() {
		return nil, false, false
	}
	n := a.rows
	// Identity(n, a.like()): n hooked diagonal Sets.
	l := Zeros[T](n, n)
	one := a.like().FromFloat(1)
	var cnt profile.Counts
	for i := 0; i < n; i++ {
		cnt.M++
		cnt.I++
		l.d[i*n+i] = one
	}
	d := make(Vec[T], n)
	good := false
	switch ad := any(a.d).(type) {
	case []scalar.F32:
		good = ldltNat(&cnt, ad, any(l.d).([]scalar.F32), any([]T(d)).([]scalar.F32), n)
	case []scalar.F64:
		good = ldltNat(&cnt, ad, any(l.d).([]scalar.F64), any([]T(d)).([]scalar.F64), n)
	}
	profile.AddCounts(cnt)
	if !good {
		return nil, true, true
	}
	lt := make([]T, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			lt[j*n+i] = l.d[i*n+j]
		}
	}
	return &LDLT[T]{l: l, lt: lt, d: d}, true, false
}

// --- LDLT solve ---
//
// Unlike the factorizations, a triangular solve has no data-dependent
// control flow: its forward pass is n(n−1)/2 multiply-subtracts, its
// backward pass the same plus n divides, each element read an
// At-priced M+I. ldltSolveFast charges that total in closed form, and
// the kernels only compute. The backward pass walks column i of L below
// the diagonal; it reads it as row i of the row-major Lᵀ that the fast
// factorization stored, in the same j order.

func ldltSolveNat[F native](l, lt, dd []F, n int, b []F) []F {
	y, yh := borrowSlice[F](n)
	defer yh.put()
	for i := 0; i < n; i++ {
		acc := b[i]
		for j, lij := range l[i*n : i*n+i] {
			acc = acc - lij*y[j]
		}
		y[i] = acc
	}
	x := make([]F, n)
	for i := n - 1; i >= 0; i-- {
		acc := y[i] / dd[i]
		xs := x[i+1:]
		for j, lji := range lt[i*n+i+1 : i*n+n] {
			acc = acc - lji*xs[j]
		}
		x[i] = acc
	}
	return x
}

// ldltSolveFast is the dispatcher behind LDLT.Solve. A factor made by
// the reference loop carries no Lᵀ and takes the hooked solve.
func ldltSolveFast[T scalar.Real[T]](f *LDLT[T], b Vec[T]) (Vec[T], bool) {
	if !nativeOf[T]() || f.lt == nil {
		return nil, false
	}
	n := len(f.d)
	var x any
	switch ld := any(f.l.d).(type) {
	case []scalar.F32:
		x = ldltSolveNat(ld, any(f.lt).([]scalar.F32), any([]T(f.d)).([]scalar.F32), n, any([]T(b)).([]scalar.F32))
	case []scalar.F64:
		x = ldltSolveNat(ld, any(f.lt).([]scalar.F64), any([]T(f.d)).([]scalar.F64), n, any([]T(b)).([]scalar.F64))
	}
	mac := uint64(n) * uint64(n-1) // both passes: n(n−1)/2 each
	cnt := profile.Counts{M: mac, I: mac}
	costs := scalar.FloatOpCosts
	cnt.Add(scalar.ScaleCounts(costs.Mul, mac))
	cnt.Add(scalar.ScaleCounts(costs.Sub, mac))
	cnt.Add(scalar.ScaleCounts(costs.Div, uint64(n)))
	profile.AddCounts(cnt)
	return Vec[T](x.([]T)), true
}

// --- QR decomposition ---

func qrNat[F native](cnt *profile.Counts, d []F, m, n int, rdiag []F) {
	for k := 0; k < n; k++ {
		var nrm F
		for i := k; i < m; i++ {
			cnt.M++
			cnt.I++ // At(i,k)
			v := d[i*n+k]
			cnt.F += 2 // Mul, Add
			nrm = nrm + v*v
		}
		cnt.F++ // Sqrt
		nrm = F(math.Sqrt(float64(nrm)))
		if nrm == 0 {
			rdiag[k] = nrm
			continue
		}
		cnt.M++
		cnt.I++ // At(k,k)
		cnt.B++ // Less
		if d[k*n+k] < 0 {
			cnt.F++ // Neg
			nrm = -nrm
		}
		cnt.F++ // Div
		invN := 1 / nrm
		for i := k; i < m; i++ {
			cnt.M += 2
			cnt.I += 2 // At(i,k) + Set(i,k)
			cnt.F++    // Mul
			d[i*n+k] = d[i*n+k] * invN
		}
		cnt.M += 2
		cnt.I += 2 // At(k,k) + Set(k,k)
		cnt.F++    // Add
		d[k*n+k] = d[k*n+k] + 1
		for j := k + 1; j < n; j++ {
			var s F
			for i := k; i < m; i++ {
				cnt.M += 2
				cnt.I += 2 // At(i,k), At(i,j)
				cnt.F += 2 // Mul, Add
				s = s + d[i*n+k]*d[i*n+j]
			}
			cnt.F++ // Neg
			cnt.M++
			cnt.I++ // At(k,k)
			cnt.F++ // Div
			s = -s / d[k*n+k]
			for i := k; i < m; i++ {
				cnt.M += 3
				cnt.I += 3 // At(i,j), At(i,k), Set(i,j)
				cnt.F += 2 // Mul, Add
				d[i*n+j] = d[i*n+j] + s*d[i*n+k]
			}
		}
		cnt.F++ // Neg
		rdiag[k] = -nrm
	}
}

// qrDecomposeFast is the dispatcher behind QRDecompose.
func qrDecomposeFast[T scalar.Real[T]](a Mat[T]) (f *QR[T], ok bool) {
	if !nativeOf[T]() {
		return nil, false
	}
	m, n := a.rows, a.cols
	qr := a.Clone() // hooked: charges its M term exactly like the reference
	rdiag := make(Vec[T], n)
	var cnt profile.Counts
	switch d := any(qr.d).(type) {
	case []scalar.F32:
		qrNat(&cnt, d, m, n, any([]T(rdiag)).([]scalar.F32))
	case []scalar.F64:
		qrNat(&cnt, d, m, n, any([]T(rdiag)).([]scalar.F64))
	}
	profile.AddCounts(cnt)
	return &QR[T]{qr: qr, rdiag: rdiag}, true
}

// --- QR solve ---

func qrSolveNat[F native](cnt *profile.Counts, d []F, m, n int, rdiag []F, b []F) []F {
	cnt.M += uint64(2 * m) // b.Clone()
	y, yh := borrowSlice[F](m)
	defer yh.put()
	copy(y, b)
	for k := 0; k < n; k++ {
		cnt.M++
		cnt.I++ // At(k,k)
		if d[k*n+k] == 0 {
			continue
		}
		var s F
		for i := k; i < m; i++ {
			cnt.M++
			cnt.I++    // At(i,k)
			cnt.F += 2 // Mul, Add
			s = s + d[i*n+k]*y[i]
		}
		cnt.F++ // Neg
		cnt.M++
		cnt.I++ // At(k,k)
		cnt.F++ // Div
		s = -s / d[k*n+k]
		for i := k; i < m; i++ {
			cnt.M++
			cnt.I++    // At(i,k)
			cnt.F += 2 // Mul, Add
			y[i] = y[i] + s*d[i*n+k]
		}
	}
	x := make([]F, n)
	for i := n - 1; i >= 0; i-- {
		acc := y[i]
		for j := i + 1; j < n; j++ {
			cnt.M++
			cnt.I++    // At(i,j)
			cnt.F += 2 // Mul, Sub
			acc = acc - d[i*n+j]*x[j]
		}
		cnt.F++ // Div
		x[i] = acc / rdiag[i]
	}
	return x
}

// qrSolveFast is the dispatcher behind QR.Solve; the caller has already
// performed the FullRank and length checks, which charge nothing.
func qrSolveFast[T scalar.Real[T]](f *QR[T], b Vec[T]) (Vec[T], bool) {
	m, n := f.qr.rows, f.qr.cols
	var cnt profile.Counts
	var x any
	switch d := any(f.qr.d).(type) {
	case []scalar.F32:
		x = qrSolveNat(&cnt, d, m, n, any([]T(f.rdiag)).([]scalar.F32), any([]T(b)).([]scalar.F32))
	case []scalar.F64:
		x = qrSolveNat(&cnt, d, m, n, any([]T(f.rdiag)).([]scalar.F64), any([]T(b)).([]scalar.F64))
	default:
		return nil, false
	}
	profile.AddCounts(cnt)
	return Vec[T](x.([]T)), true
}
